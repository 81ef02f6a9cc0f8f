type t = {
  level : int array;
  start : int array; (* level [l] owns slots [start.(l)] .. [start.(l + 1) - 1] *)
  fill : int array; (* pending nodes per level, stacked from [start.(l)] *)
  slots : int array;
  pending : Bytes.t;
  mutable size : int;
  mutable low : int; (* no pending node sits below this level *)
}

let create level =
  let depth = Array.fold_left max (-1) level + 1 in
  let start = Array.make (depth + 1) 0 in
  Array.iter (fun l -> if l >= 0 then start.(l + 1) <- start.(l + 1) + 1) level;
  for l = 1 to depth do
    start.(l) <- start.(l) + start.(l - 1)
  done;
  let n = Array.length level in
  {
    level;
    start;
    fill = Array.make depth 0;
    slots = Array.make n 0;
    pending = Bytes.make n '\000';
    size = 0;
    low = depth;
  }

let push q id =
  if Bytes.get q.pending id = '\000' then begin
    let l = q.level.(id) in
    let k = q.fill.(l) in
    Bytes.unsafe_set q.pending id '\001';
    Array.unsafe_set q.slots (Array.unsafe_get q.start l + k) id;
    q.fill.(l) <- k + 1;
    q.size <- q.size + 1;
    if l < q.low then q.low <- l
  end

let pop q =
  if q.size = 0 then -1
  else begin
    let l = ref q.low in
    while Array.unsafe_get q.fill !l = 0 do
      incr l
    done;
    let k = Array.unsafe_get q.fill !l - 1 in
    Array.unsafe_set q.fill !l k;
    let id = Array.unsafe_get q.slots (Array.unsafe_get q.start !l + k) in
    Bytes.unsafe_set q.pending id '\000';
    q.size <- q.size - 1;
    q.low <- (if q.size = 0 then Array.length q.fill else !l);
    id
  end
