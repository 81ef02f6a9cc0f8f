(* Reference identification: the exact search the library ran before it
   rejected tables by a necessary condition first. Every table goes
   straight to the recursive interval / suffix-prefix search, so the
   identity tests compare the production verdicts, specs included, with a
   search that never skips. *)

let is_empty t = Truthtable.is_const t = Some false
let is_full t = Truthtable.is_const t = Some true

(* Positions returned by the recursions are 1-based indices into the
   current variable set; [absolute] converts a chain of relative picks to
   original variable numbers. *)
let absolute picks n =
  let remaining = ref (List.init n (fun i -> i + 1)) in
  List.map
    (fun q ->
      let v = List.nth !remaining (q - 1) in
      remaining := List.filteri (fun i _ -> i <> q - 1) !remaining;
      v)
    picks

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

(* An order of the current variables under which [g]'s ON-set is a suffix
   interval (or empty) and [h]'s a prefix interval (or empty). *)
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
          let attempt cond g' h' = if cond then sufpre ms g' h' else None in
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

(* ON-set is a non-empty contiguous interval under some variable order. *)
let rec interval ms g =
  let k = Truthtable.arity g in
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
  | Some (lo, hi) -> Some { Comparison_fn.perm; lo; hi; complemented }
  | None -> None

let identify_exact f =
  let n = Truthtable.arity f in
  let ms = { sufpre_memo = TTpair.create 64; interval_memo = TT.create 64 } in
  let from_picks complemented picks =
    let perm = Array.of_list (absolute picks n) in
    spec_of_perm f perm ~complemented
  in
  match interval ms f with
  | Some picks -> from_picks false picks
  | None -> (
    match interval ms (Truthtable.lnot f) with
    | Some picks -> from_picks true picks
    | None -> None)
