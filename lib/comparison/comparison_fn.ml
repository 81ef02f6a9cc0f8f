type spec = {
  perm : int array;
  lo : int;
  hi : int;
  complemented : bool;
}

let pp_spec ppf s =
  Format.fprintf ppf "perm (%s), L=%d, U=%d%s"
    (String.concat " "
       (Array.to_list (Array.map (fun v -> Printf.sprintf "y%d" v) s.perm)))
    s.lo s.hi
    (if s.complemented then ", complemented" else "")

let inverse_perm p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun j v -> inv.(v - 1) <- j + 1) p;
  inv

let spec_table n s =
  if Array.length s.perm <> n then invalid_arg "Comparison_fn.spec_table: arity";
  let base = Truthtable.interval n ~lo:s.lo ~hi:s.hi in
  let base = if s.complemented then Truthtable.lnot base else base in
  Truthtable.permute base (inverse_perm s.perm)

let check f s =
  Truthtable.arity f = Array.length s.perm
  &&
  let permuted = Truthtable.permute f s.perm in
  let target = if s.complemented then Truthtable.lnot permuted else permuted in
  match Truthtable.as_interval target with
  | Some (l, u) -> l = s.lo && u = s.hi
  | None -> false

let is_empty t = Truthtable.is_const t = Some false
let is_full t = Truthtable.is_const t = Some true

(* --- Exact engine --------------------------------------------------------
   Positions returned by the recursions are 1-based indices into the
   *current* variable set; [absolute] converts a chain of relative picks to
   original variable numbers. *)

let absolute picks n =
  let remaining = ref (List.init n (fun i -> i + 1)) in
  List.map
    (fun q ->
      let v = List.nth !remaining (q - 1) in
      remaining := List.filteri (fun i _ -> i <> q - 1) !remaining;
      v)
    picks

(* Memo tables keyed on the packed-word truth tables themselves
   ({!Truthtable.equal} / {!Truthtable.hash}) — no hex-string dumps, no
   allocation per lookup. *)
module TT = Hashtbl.Make (struct
  type t = Truthtable.t

  let equal = Truthtable.equal
  let hash = Truthtable.hash
end)

module TTpair = Hashtbl.Make (struct
  type t = Truthtable.t * Truthtable.t

  let equal (a, b) (a', b') = Truthtable.equal a a' && Truthtable.equal b b'
  let hash (a, b) = ((Truthtable.hash a * 0x01000193) lxor Truthtable.hash b) land max_int
end)

type memos = {
  sufpre_memo : int list option TTpair.t;
  interval_memo : int list option TT.t;
}

(* Shared-permutation search: exists an order of the current variables under
   which [g]'s ON-set is a suffix interval (or empty) and [h]'s ON-set is a
   prefix interval (or empty). *)
let rec sufpre ms g h =
  let k = Truthtable.arity g in
  if k = 0 then Some []
  else begin
    let key = (g, h) in
    match TTpair.find_opt ms.sufpre_memo key with
    | Some r -> r
    | None ->
      let rec try_var x =
        if x > k then None
        else begin
          let g0 = Truthtable.cofactor g ~var:x false
          and g1 = Truthtable.cofactor g ~var:x true
          and h0 = Truthtable.cofactor h ~var:x false
          and h1 = Truthtable.cofactor h ~var:x true in
          let attempt cond g' h' =
            if cond then sufpre ms g' h' else None
          in
          let sub =
            match attempt (is_empty g0 && is_empty h1) g1 h0 with
            | Some p -> Some p
            | None -> (
              match attempt (is_empty g0 && is_full h0) g1 h1 with
              | Some p -> Some p
              | None -> (
                match attempt (is_full g1 && is_empty h1) g0 h0 with
                | Some p -> Some p
                | None -> attempt (is_full g1 && is_full h0) g0 h1))
          in
          match sub with
          | Some p -> Some (x :: p)
          | None -> try_var (x + 1)
        end
      in
      let r = try_var 1 in
      TTpair.add ms.sufpre_memo key r;
      r
  end

(* ON-set is a (non-empty) contiguous interval under some variable order. *)
let rec interval ms g =
  let k = Truthtable.arity g in
  (* Picks are relative to the remaining variables, so "any order" is the
     all-ones pick sequence (always take the first leftover variable). *)
  if is_full g then Some (List.init k (fun _ -> 1))
  else if is_empty g then None
  else begin
    match TT.find_opt ms.interval_memo g with
    | Some r -> r
    | None ->
      let rec try_var x =
        if x > k then None
        else begin
          let g0 = Truthtable.cofactor g ~var:x false
          and g1 = Truthtable.cofactor g ~var:x true in
          let sub =
            if is_empty g1 then interval ms g0
            else if is_empty g0 then interval ms g1
            else sufpre ms g0 g1
          in
          match sub with
          | Some p -> Some (x :: p)
          | None -> try_var (x + 1)
        end
      in
      let r = try_var 1 in
      TT.add ms.interval_memo g r;
      r
  end

let spec_of_perm f perm ~complemented =
  let permuted = Truthtable.permute f perm in
  let target = if complemented then Truthtable.lnot permuted else permuted in
  match Truthtable.as_interval target with
  | Some (lo, hi) -> Some { perm; lo; hi; complemented }
  | None -> None

(* A necessary condition for the minterms with [f = v] to be a non-empty
   interval under some variable order (DESIGN.md §15.4). Cofactor away the
   literal factors; what remains must be constant 1, or have a variable x
   such that its x = 0 half is positive unate and its x = 1 half negative
   unate in every other remaining variable. Both kernels read [f] in place,
   for every arity alike, so a rejected table costs no allocation. *)
let may_be_interval f v =
  let n = Truthtable.arity f in
  let ones = Truthtable.popcount f in
  let on = if v then ones else (1 lsl n) - ones in
  on > 0
  &&
  let free = ((1 lsl n) - 1) land lnot (Truthtable.literal_factors f v) in
  let nfree = ref 0 in
  for y = 1 to n do
    if free land (1 lsl (y - 1)) <> 0 then incr nfree
  done;
  (* the remainder is constant 1 when the minterms fill their subcube *)
  on = 1 lsl !nfree
  ||
  let splits = ref free and y = ref 1 in
  while !splits <> 0 && !y <= n do
    let bit = 1 lsl (!y - 1) in
    if free land bit <> 0 then
      splits := !splits land (Truthtable.unate_splits f ~var:!y ~positive:v lor bit);
    incr y
  done;
  !splits <> 0

(* The prefilter only skips searches that would fail: [interval] returns
   picks only for a non-empty interval, which passes [may_be_interval]. So
   every verdict, spec included, is the unfiltered search's. *)
let identify_exact f =
  let on = may_be_interval f true and off = may_be_interval f false in
  if not (on || off) then None
  else begin
    let n = Truthtable.arity f in
    let ms = { sufpre_memo = TTpair.create 64; interval_memo = TT.create 64 } in
    let from_picks complemented picks =
      let perm = Array.of_list (absolute picks n) in
      spec_of_perm f perm ~complemented
    in
    match if on then interval ms f else None with
    | Some picks -> from_picks false picks
    | None -> (
      match if off then interval ms (Truthtable.lnot f) else None with
      | Some picks -> from_picks true picks
      | None -> None)
  end

(* --- Sampled engine ------------------------------------------------------ *)

let factorial n =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 n

let rec permutations = function
  | [] -> Seq.return []
  | l ->
    List.to_seq l
    |> Seq.concat_map (fun x ->
           Seq.map (fun rest -> x :: rest) (permutations (List.filter (( <> ) x) l)))

let try_perm f perm =
  match spec_of_perm f perm ~complemented:false with
  | Some s -> Some s
  | None -> spec_of_perm f perm ~complemented:true

let identify_sampled ?(budget = 200) rng f =
  let n = Truthtable.arity f in
  if n = 0 then try_perm f [||]
  else if n <= 8 && factorial n <= budget then
    (* Exhaustive: complete for small arities. *)
    Seq.fold_left
      (fun acc p -> match acc with Some _ -> acc | None -> try_perm f (Array.of_list p))
      None
      (permutations (List.init n (fun i -> i + 1)))
  else begin
    let identity = Array.init n (fun i -> i + 1) in
    let rec sample k =
      if k >= budget then None
      else begin
        let p = Array.copy identity in
        Rng.shuffle rng p;
        match try_perm f p with Some s -> Some s | None -> sample (k + 1)
      end
    in
    match try_perm f identity with Some s -> Some s | None -> sample 1
  end

type engine = Exact | Sampled of int

let identify engine rng f =
  match engine with
  | Exact -> identify_exact f
  | Sampled budget -> identify_sampled ~budget rng f

(* --- Don't-care-aware identification ------------------------------------- *)

let dc_matches ~care_on ~dc s =
  let n = Truthtable.arity care_on in
  Array.length s.perm = n
  && Truthtable.arity dc = n
  &&
  let g = spec_table n s in
  let diff = Truthtable.lxor_ g care_on in
  (* every disagreement must be a don't-care *)
  Truthtable.is_const (Truthtable.land_ diff (Truthtable.lnot dc)) = Some false

(* Under permutation [perm], does some interval agree with the cares? Use the
   tightest interval spanning the care minterms of [pos] and require its
   interior to avoid care minterms of [neg]. *)
let dc_span f_pos f_neg perm ~complemented =
  let pos = Truthtable.permute f_pos perm in
  let neg = Truthtable.permute f_neg perm in
  match Truthtable.minterms pos with
  | [] -> None
  | first :: rest ->
    let lo = first in
    let hi = List.fold_left (fun _ m -> m) first rest in
    let ok = ref true in
    for m = lo to hi do
      if Truthtable.get neg m then ok := false
    done;
    if !ok then Some { perm; lo; hi; complemented } else None

let identify_dc ?(budget = 200) rng ~care_on ~dc =
  let n = Truthtable.arity care_on in
  if Truthtable.arity dc <> n then invalid_arg "identify_dc: arity mismatch";
  let care_off = Truthtable.lnot (Truthtable.lor_ care_on dc) in
  let try_perm perm =
    match dc_span care_on care_off perm ~complemented:false with
    | Some s -> Some s
    | None -> dc_span care_off care_on perm ~complemented:true
  in
  if n = 0 then try_perm [||]
  else if n <= 8 && factorial n <= budget then
    Seq.fold_left
      (fun acc p ->
        match acc with Some _ -> acc | None -> try_perm (Array.of_list p))
      None
      (permutations (List.init n (fun i -> i + 1)))
  else begin
    let identity = Array.init n (fun i -> i + 1) in
    let rec sample k =
      if k >= budget then None
      else begin
        let p = Array.copy identity in
        Rng.shuffle rng p;
        match try_perm p with Some s -> Some s | None -> sample (k + 1)
      end
    in
    match try_perm identity with Some s -> Some s | None -> sample 1
  end
