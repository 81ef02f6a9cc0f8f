(* Growable node-id bitset + transitive-fanout marking for the incremental
   resynthesis engine. Bytes-backed: dirty checks are the per-root hot path
   of a pass, so membership must stay a single bounds-checked load. *)

type set = { mutable bits : Bytes.t }

let create ?(all = false) n =
  { bits = Bytes.make (max 1 n) (if all then '\001' else '\000') }

let mem s id = id >= 0 && id < Bytes.length s.bits && Bytes.unsafe_get s.bits id = '\001'

let add s id =
  if id < 0 then invalid_arg "Footprint.add: negative id";
  let len = Bytes.length s.bits in
  if id >= len then begin
    let bits = Bytes.make (max (id + 1) (2 * len)) '\000' in
    Bytes.blit s.bits 0 bits 0 len;
    s.bits <- bits
  end;
  Bytes.unsafe_set s.bits id '\001'

let remove s id = if mem s id then Bytes.unsafe_set s.bits id '\000'

(* The visited table is private to the call: the destination set cannot
   double as one, because a node already dirty from an earlier splice must
   not cut off traversal into its (possibly still clean) fanout cone. *)
let mark_fanout_cone c s seeds =
  let n = Circuit.size c in
  let visited = Bytes.make n '\000' in
  let added = ref 0 in
  let stack = ref [] in
  let push id =
    if
      id >= 0 && id < n
      && Bytes.unsafe_get visited id = '\000'
      && Circuit.is_alive c id
    then begin
      Bytes.unsafe_set visited id '\001';
      stack := id :: !stack
    end
  in
  List.iter push seeds;
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | id :: rest ->
      stack := rest;
      if not (mem s id) then begin
        incr added;
        add s id
      end;
      List.iter push (Circuit.fanouts c id)
  done;
  !added
