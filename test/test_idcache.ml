(* The disk-persistent identification cache (DESIGN.md §15): the disk
   store's round-trip, version-mismatch, torn-tail, corrupt-record and
   wrong-spec behaviour, and warm-start identity of the engine. *)

open Helpers

let random_table rng n =
  Truthtable.create n (fun _ -> Rng.int rng 2 = 1)

(* --- disk store ------------------------------------------------------------ *)

let tmpdir () =
  let d = Filename.temp_file "sft-idcache" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let test_disk_round_trip () =
  let dir = tmpdir () in
  let cold = Idcache.create ~dir () in
  (* The two 0-input constants (the engine's constant cones) first: a
     reader that rejected them would lose every later entry. *)
  let tables =
    [ Truthtable.const 0 false; Truthtable.const 0 true ]
    @ List.init 64 (fun v -> Truthtable.create 3 (fun m -> v land (1 lsl m) <> 0))
  in
  List.iter
    (fun f ->
      if Idcache.find cold f = None then
        Idcache.record cold f (Comparison_fn.identify_exact f))
    tables;
  check int_ "one entry per table" 66 (Idcache.length cold);
  Idcache.finish cold;
  let warm = Idcache.create ~dir () in
  check int_ "entries survive the round trip" 66 (Idcache.length warm);
  List.iter
    (fun f ->
      (* Every populated function must warm-hit with its exact verdict. *)
      match Idcache.find warm f with
      | Some verdict ->
        if verdict <> Comparison_fn.identify_exact f then
          Alcotest.failf "warm verdict differs for %s" (Truthtable.to_string f)
      | None -> Alcotest.failf "expected a warm hit for %s" (Truthtable.to_string f))
    tables

let test_disk_version_mismatch () =
  let dir = tmpdir () in
  let path = Id_store.file ~dir in
  (* A well-formed header with the wrong version must read as empty... *)
  let oc = open_out_bin path in
  output_string oc "SFTIDC";
  output_string oc "\x63\x00" (* version 99 *);
  output_string oc "garbage that must never be parsed as records";
  close_out oc;
  check int_ "version mismatch reads as empty" 0 (List.length (Id_store.load path));
  (* ...and the next append must rewrite the file, not extend it. *)
  let t = Truthtable.of_minterms 3 [ 1; 2; 3 ] in
  Id_store.append path [ Id_store.Raw (t, Comparison_fn.identify_exact t) ];
  let expect_only_t what =
    match Id_store.load path with
    | [ Id_store.Raw (t', v) ] ->
      check bool_ "table round-trips" true (Truthtable.equal t t');
      if v <> Comparison_fn.identify_exact t then Alcotest.fail "verdict changed"
    | _ -> Alcotest.failf "append after %s did not rewrite" what
  in
  expect_only_t "a version mismatch";
  (* A version-1 store (the format before the NPN class layer went) holding
     a checksum-valid kind-2 class record: also read as empty and
     rewritten, never decoded. *)
  let record =
    let b = Buffer.create 16 in
    Buffer.add_uint8 b 2;
    Buffer.add_uint8 b 3;
    Buffer.add_int64_le b (Truthtable.words t).(0);
    Buffer.add_uint16_le b 0b101;
    let body = Buffer.contents b in
    let h = ref 0x811C9DC5 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) body;
    Buffer.add_int32_le b (Int32.of_int !h);
    Buffer.contents b
  in
  let oc = open_out_bin path in
  output_string oc "SFTIDC\x01\x00";
  output_string oc record;
  close_out oc;
  check int_ "version-1 store reads as empty" 0 (List.length (Id_store.load path));
  Id_store.append path [ Id_store.Raw (t, Comparison_fn.identify_exact t) ];
  expect_only_t "a version-1 store"

let test_disk_torn_tail () =
  let dir = tmpdir () in
  let path = Id_store.file ~dir in
  let tables =
    List.map (fun ms -> Truthtable.of_minterms 3 ms) [ [ 0 ]; [ 1; 2 ]; [ 3; 4; 5 ] ]
  in
  Id_store.append path
    (List.map (fun t -> Id_store.Raw (t, Comparison_fn.identify_exact t)) tables);
  check int_ "three records" 3 (List.length (Id_store.load path));
  (* Tear the last record: readers keep the prefix... *)
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len - 3);
  Unix.close fd;
  check int_ "torn tail drops one record" 2 (List.length (Id_store.load path));
  (* ...and the next append repairs the tail before extending. *)
  let extra = Truthtable.of_minterms 3 [ 6; 7 ] in
  Id_store.append path [ Id_store.Raw (extra, Comparison_fn.identify_exact extra) ];
  let entries = Id_store.load path in
  check int_ "repair + append" 3 (List.length entries);
  (match List.rev entries with
  | Id_store.Raw (t, _) :: _ ->
    check bool_ "appended record intact" true (Truthtable.equal t extra)
  | _ -> Alcotest.fail "unexpected tail entry")

let test_disk_corrupt_record () =
  let dir = tmpdir () in
  let path = Id_store.file ~dir in
  let raw ms =
    let t = Truthtable.of_minterms 3 ms in
    Id_store.Raw (t, Comparison_fn.identify_exact t)
  in
  (* Append the first record alone so its encoded length is observable
     (records vary in size with the verdict payload), then two more. *)
  Id_store.append path [ raw [ 0 ] ];
  let first_end = (Unix.stat path).Unix.st_size in
  Id_store.append path [ raw [ 1; 2 ]; raw [ 3; 4; 5 ] ];
  check int_ "three records before corruption" 3 (List.length (Id_store.load path));
  (* Flip a byte inside the second record's table words: the checksum
     rejects it and parsing stops — record 1 survives, 2 and 3 drop. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (first_end + 4) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd (first_end + 4) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  check int_ "corruption truncates at the bad record" 1
    (List.length (Id_store.load path))

(* --- engine warm start ----------------------------------------------------- *)

let optimize_fingerprint options c =
  let c = Circuit.copy c in
  let stats = Engine.optimize Engine.Gates options c in
  ( stats.Engine.passes,
    stats.Engine.replacements,
    stats.Engine.gates_after,
    stats.Engine.paths_after,
    Bench_format.to_string c )

let counter v = Obs.Counter.value (Obs.Counter.make v)

let test_engine_warm_start_identity () =
  let dir = tmpdir () in
  let c = random_circuit ~n_pi:6 ~n_gates:40 3 in
  let base = { Engine.default_options with Engine.verify = `Off; domains = 1 } in
  Obs.enable ();
  let off = optimize_fingerprint { base with Engine.id_cache = false } c in
  let cold = optimize_fingerprint { base with Engine.cache_dir = Some dir } c in
  let d0 = counter "idcache.disk_hits" in
  let warm = optimize_fingerprint { base with Engine.cache_dir = Some dir } c in
  let disk_hits = counter "idcache.disk_hits" - d0 in
  Obs.disable ();
  if cold <> off then Alcotest.fail "cold cached run diverges from cache-off";
  if warm <> off then Alcotest.fail "warm cached run diverges from cache-off";
  if disk_hits = 0 then Alcotest.fail "warm run never hit the disk store"

(* A checksum-valid record whose spec does not denote its table (here:
   every positive verdict of a cold run rewritten with [hi - 1]) must end
   the valid prefix like a corrupt one: replayed, it would splice a unit
   of the wrong function. The warm run must equal the cache-off run, and
   its append must truncate the bad records. *)
let test_engine_wrong_spec_record () =
  let dir = tmpdir () in
  let path = Id_store.file ~dir in
  let c = random_circuit ~n_pi:6 ~n_gates:40 3 in
  let base = { Engine.default_options with Engine.verify = `Off; domains = 1 } in
  let off = optimize_fingerprint { base with Engine.id_cache = false } c in
  ignore (optimize_fingerprint { base with Engine.cache_dir = Some dir } c);
  let wrong = ref 0 in
  let entries =
    List.map
      (function
        | Id_store.Raw (t, Some s) when s.Comparison_fn.hi > s.lo ->
          incr wrong;
          Id_store.Raw (t, Some { s with hi = s.hi - 1 })
        | e -> e)
      (Id_store.load path)
  in
  if !wrong = 0 then Alcotest.fail "cold run recorded no rewritable positive verdict";
  let first_wrong =
    let rec go i = function
      | Id_store.Raw (t, Some s) :: _ when not (Comparison_fn.check t s) -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> i
    in
    go 0 entries
  in
  Sys.remove path;
  Id_store.append path entries;
  check int_ "a wrong spec ends the valid prefix" first_wrong
    (List.length (Id_store.load path));
  let warm = optimize_fingerprint { base with Engine.cache_dir = Some dir } c in
  if warm <> off then Alcotest.fail "warm run over a wrong spec diverges from cache-off";
  List.iter
    (function
      | Id_store.Raw (t, Some s) when not (Comparison_fn.check t s) ->
        Alcotest.fail "the warm run's append kept a wrong spec"
      | _ -> ())
    (Id_store.load path)

(* --- qcheck ---------------------------------------------------------------- *)

let arb_seed = QCheck.int_range 1 1_000_000

let prop_store_round_trip =
  QCheck.Test.make ~name:"disk entries round-trip bit-exactly" ~count:30 arb_seed
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let dir = tmpdir () in
      let path = Id_store.file ~dir in
      let entries =
        List.init 5 (fun _ ->
            let t = random_table rng (Rng.int rng 7) in
            Id_store.Raw (t, Comparison_fn.identify_exact t))
      in
      Id_store.append path entries;
      let back = Id_store.load path in
      List.length back = List.length entries
      && List.for_all2
           (fun (Id_store.Raw (t, v)) (Id_store.Raw (t', v')) ->
             Truthtable.equal t t' && v = v')
           entries back)

let suite =
  [
    Alcotest.test_case "disk round trip" `Quick test_disk_round_trip;
    Alcotest.test_case "version mismatch reads empty, append rewrites" `Quick
      test_disk_version_mismatch;
    Alcotest.test_case "torn tail: reader keeps prefix, writer repairs" `Quick
      test_disk_torn_tail;
    Alcotest.test_case "checksum rejects corrupt record" `Quick
      test_disk_corrupt_record;
    Alcotest.test_case "engine warm start: identical circuits, disk hits" `Slow
      test_engine_warm_start_identity;
    Alcotest.test_case "wrong-spec record: warm run equals cache-off" `Slow
      test_engine_wrong_spec_record;
  ]

let qchecks = [ prop_store_round_trip ]
