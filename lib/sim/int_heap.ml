type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 64 0; n = 0 }
let is_empty h = h.n = 0

let push h x =
  if h.n = Array.length h.a then begin
    let bigger = Array.make (2 * h.n) 0 in
    Array.blit h.a 0 bigger 0 h.n;
    h.a <- bigger
  end;
  let i = ref h.n in
  h.n <- h.n + 1;
  h.a.(!i) <- x;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if h.a.(p) > h.a.(!i) then begin
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    end
    else continue := false
  done

let pop h =
  if h.n = 0 then invalid_arg "Int_heap.pop: empty heap";
  let top = h.a.(0) in
  h.n <- h.n - 1;
  h.a.(0) <- h.a.(h.n);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.n && h.a.(l) < h.a.(!smallest) then smallest := l;
    if r < h.n && h.a.(r) < h.a.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = h.a.(!smallest) in
      h.a.(!smallest) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  top
