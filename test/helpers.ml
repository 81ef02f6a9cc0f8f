(* Shared circuit fixtures and small utilities for the test suites. *)

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* The classic ISCAS-85 c17 netlist: 5 inputs, 2 outputs, 6 NAND gates. *)
let c17_text =
  "# c17\n\
   INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n\
   OUTPUT(G22)\nOUTPUT(G23)\n\
   G10 = NAND(G1, G3)\n\
   G11 = NAND(G3, G6)\n\
   G16 = NAND(G2, G11)\n\
   G19 = NAND(G11, G7)\n\
   G22 = NAND(G10, G16)\n\
   G23 = NAND(G16, G19)\n"

let c17 () = Bench_format.of_string ~name:"c17" c17_text

(* A small two-output circuit with reconvergence, XOR and an inverter. *)
let mixed () =
  let c = Circuit.create ~name:"mixed" () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let d = Circuit.add_input ~name:"d" c in
  let nb = Circuit.add_gate ~name:"nb" c Gate.Not [| b |] in
  let x1 = Circuit.add_gate ~name:"x1" c Gate.And [| a; nb |] in
  let x2 = Circuit.add_gate ~name:"x2" c Gate.Or [| nb; d |] in
  let x3 = Circuit.add_gate ~name:"x3" c Gate.Xor [| x1; x2 |] in
  Circuit.mark_output ~name:"o1" c x3;
  Circuit.mark_output ~name:"o2" c x2;
  c

(* Deterministic random circuit for property tests: n_pi inputs, n_gates
   gates with random kinds and fanins drawn from earlier nodes, last few
   nodes marked as outputs. *)
let random_circuit ?(n_pi = 5) ?(n_gates = 20) ?(n_po = 3) seed =
  let rng = Rng.create (Int64.of_int seed) in
  let c = Circuit.create ~name:(Printf.sprintf "rand%d" seed) () in
  let nodes = ref [] in
  for i = 0 to n_pi - 1 do
    nodes := Circuit.add_input ~name:(Printf.sprintf "i%d" i) c :: !nodes
  done;
  let kinds = [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Not; Gate.And; Gate.Or |] in
  for _ = 1 to n_gates do
    let pool = Array.of_list !nodes in
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let arity =
      match kind with Gate.Not -> 1 | _ -> 2 + Rng.int rng 2
    in
    let fins = Array.init arity (fun _ -> pool.(Rng.int rng (Array.length pool))) in
    (* And/Or/Nand/Nor reject duplicate fanins in Check; dedup here. *)
    let fins =
      let seen = Hashtbl.create 4 in
      Array.to_list fins
      |> List.filter (fun f ->
             if Hashtbl.mem seen f then false
             else begin
               Hashtbl.add seen f ();
               true
             end)
      |> Array.of_list
    in
    nodes := Circuit.add_gate c kind fins :: !nodes
  done;
  let pool = Array.of_list !nodes in
  for k = 0 to n_po - 1 do
    Circuit.mark_output ~name:(Printf.sprintf "o%d" k) c pool.(k mod Array.length pool)
  done;
  c

(* Exhaustive ground truth: is the fault detected by any input vector? *)
let detectable_exhaustive c f =
  let fsim = Fsim.create (Compiled.of_circuit c) in
  let n = Circuit.num_inputs c in
  let found = ref false in
  for v = 0 to (1 lsl n) - 1 do
    if not !found then begin
      let vec = Array.init n (fun i -> (v lsr i) land 1 = 1) in
      if Fsim.detect_single fsim f vec then found := true
    end
  done;
  !found

let qsuite name cases = (name, List.map QCheck_alcotest.to_alcotest cases)
