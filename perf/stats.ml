(* Order statistics over the repetitions of one metric. Quartiles use the
   "exclusive" method of Python's statistics.quantiles(n=4), so the spreads
   reported here match the ones Python computes from the same values. *)

type t = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
  values : float list;  (** in run order *)
}

let quantile_exclusive sorted i =
  let ld = Array.length sorted in
  let m = ld + 1 in
  let j = max 1 (min (ld - 1) (i * m / 4)) in
  let delta = (i * m) - (j * 4) in
  ((sorted.(j - 1) *. float_of_int (4 - delta)) +. (sorted.(j) *. float_of_int delta)) /. 4.0

let median_sorted a =
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let of_values values =
  if values = [] then invalid_arg "Stats.of_values: no values";
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let q1, q3 =
    if n < 2 then (a.(0), a.(0)) else (quantile_exclusive a 1, quantile_exclusive a 3)
  in
  { median = median_sorted a; q1; q3; min = a.(0); max = a.(n - 1); n; values }

let median values = (of_values values).median

(* Interquartile range as a share of the median (0 when the median is 0). *)
let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

let to_json ~unit_ s =
  Obs_json.(
    Obj
      [
        ("unit", String unit_);
        ("median", Float s.median);
        ("q1", Float s.q1);
        ("q3", Float s.q3);
        ("min", Float s.min);
        ("max", Float s.max);
        ("n", Int s.n);
        ("values", List (List.map (fun v -> Float v) s.values));
      ])

let of_json json = of_values (List.map Json.num (Json.list (Json.field "values" json)))
