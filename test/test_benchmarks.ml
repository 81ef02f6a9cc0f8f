open Helpers

(* These tests read the committed stand-ins under data/benchmarks/, which
   the test runner declares as dependencies. A missing file fails the test
   rather than silently regenerating the circuit (4-65 s each). *)

let committed () =
  List.map
    (fun e ->
      if not (Benchmarks.cached e) then
        Alcotest.failf "%s: no committed stand-in under data/benchmarks/" e.Benchmarks.name;
      e)
    Benchmarks.all

let test_cached_circuits_valid () =
  List.iter
    (fun e ->
      let c = Benchmarks.build e in
      Check.validate c;
      check int_ (e.Benchmarks.name ^ " inputs")
        e.Benchmarks.profile.Circuit_gen.n_pi (Circuit.num_inputs c);
      check int_ (e.Benchmarks.name ^ " outputs")
        e.Benchmarks.profile.Circuit_gen.n_po (Circuit.num_outputs c);
      check bool_ "has gates" true (Circuit.num_gates c > 100);
      check bool_ "paths computable" true (Paths.total c > 0))
    (committed ())

let test_cached_deterministic_copy () =
  let e = List.hd (committed ()) in
  let a = Benchmarks.build e in
  let b = Benchmarks.build e in
  check bool_ "two builds identical" true
    (Bench_format.to_string a = Bench_format.to_string b)

let suite =
  [
    ("cached stand-ins are valid", `Quick, test_cached_circuits_valid);
    ("builds are identical copies", `Quick, test_cached_deterministic_copy);
  ]
