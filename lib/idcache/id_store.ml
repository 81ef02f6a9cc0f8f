(* Disk persistence for identification verdicts (DESIGN.md §15).

   One append-only binary file per cache directory:

     header   "SFTIDC" (6 bytes) + version u16 LE
     records  kind u8 | arity u8 | payload | fnv1a-32 of the record bytes

   kind 1 (raw verdict, the only kind): the packed table words (LE), then
   the exact verdict — tag u8 0/1, and for tag 1 the spec (arity perm
   bytes, lo u16, hi u16, complemented u8). Version 1 stores, which also
   held kind-2 NPN-class records, read as empty and are rewritten by the
   next append.

   Recovery rules. A reader stops at the first structurally invalid or
   checksum-failing record, or at a positive verdict whose spec does not
   denote its table, and keeps the prefix: a crash mid-append (the
   only writer failure mode — every append is one write of whole records)
   costs at most the torn tail. A bad header (magic or version mismatch)
   reads as empty. Writers repair rather than tolerate: under the advisory
   lock they re-scan, truncate any torn tail (or republish a fresh header
   over a bad one, atomically via write-temp + rename), and only then
   append. Readers never lock. *)

type entry = Raw of Truthtable.t * Comparison_fn.spec option

let magic = "SFTIDC"
let version = 2
let header_len = 8
let file ~dir = Filename.concat dir "idcache.bin"

let nwords n = if n <= 6 then 1 else 1 lsl (n - 6)

(* --- encoding ---------------------------------------------------------- *)

let fnv1a s pos len =
  let h = ref 0x811C9DC5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code s.[i]) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let add_record buf body =
  let b = Buffer.create 64 in
  body b;
  let s = Buffer.contents b in
  Buffer.add_string buf s;
  Buffer.add_int32_le buf (Int32.of_int (fnv1a s 0 (String.length s)))

let add_table buf t =
  Buffer.add_uint8 buf (Truthtable.arity t);
  Array.iter (Buffer.add_int64_le buf) (Truthtable.words t)

let encode buf (Raw (t, v)) =
  add_record buf (fun buf ->
      Buffer.add_uint8 buf 1;
      add_table buf t;
      match v with
      | None -> Buffer.add_uint8 buf 0
      | Some (s : Comparison_fn.spec) ->
        Buffer.add_uint8 buf 1;
        Array.iter (Buffer.add_uint8 buf) s.perm;
        Buffer.add_uint16_le buf s.lo;
        Buffer.add_uint16_le buf s.hi;
        Buffer.add_uint8 buf (if s.complemented then 1 else 0))

(* --- decoding ---------------------------------------------------------- *)

(* Decode one record at [pos]; [None] on anything structurally invalid,
   truncated, checksum-failing, or carrying a spec that does not denote its
   table — the caller treats that position as the end of the valid prefix.
   The last check matters because a replayed spec is spliced as is: a wrong
   one would build a unit of the wrong function. *)
let decode s pos =
  let len = String.length s in
  let ok_perm n perm =
    let seen = Array.make (n + 1) false in
    Array.for_all
      (fun v -> v >= 1 && v <= n && not seen.(v) && (seen.(v) <- true; true))
      perm
  in
  if pos + 2 > len then None
  else begin
    let n = Char.code s.[pos + 1] in
    let words_end = pos + 2 + (8 * nwords n) in
    (* Arity 0 is legal: the engine's cuts include constant cones. *)
    if Char.code s.[pos] <> 1 || n > 16 || words_end + 1 > len then None
    else begin
      let tag = Char.code s.[words_end] in
      let body_end = words_end + 1 + if tag = 1 then n + 5 else 0 in
      if
        tag > 1
        || body_end + 4 > len
        || Int32.to_int (String.get_int32_le s body_end) land 0xFFFFFFFF
           <> fnv1a s pos (body_end - pos)
      then None
      else begin
        let table =
          Truthtable.of_words n
            (Array.init (nwords n) (fun i -> String.get_int64_le s (pos + 2 + (8 * i))))
        in
        let entry v = Some (Raw (table, v), body_end + 4) in
        if tag = 0 then entry None
        else begin
          let p = words_end + 1 in
          let perm = Array.init n (fun i -> Char.code s.[p + i]) in
          let compl_ = Char.code s.[p + n + 4] in
          let spec =
            {
              Comparison_fn.perm;
              lo = String.get_uint16_le s (p + n);
              hi = String.get_uint16_le s (p + n + 2);
              complemented = compl_ = 1;
            }
          in
          if compl_ > 1 || (not (ok_perm n perm)) || not (Comparison_fn.check table spec)
          then None
          else entry (Some spec)
        end
      end
    end
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let header_ok s =
  String.length s >= header_len
  && String.sub s 0 6 = magic
  && String.get_uint16_le s 6 = version

(* Entries plus the byte length of the valid prefix; [None] prefix length
   means the header itself is unusable. *)
let parse s =
  if not (header_ok s) then ([], None)
  else begin
    let rec go pos acc =
      match decode s pos with
      | Some (e, pos') -> go pos' (e :: acc)
      | None -> (List.rev acc, Some pos)
    in
    go header_len []
  end

let load path =
  match read_file path with
  | None -> []
  | Some s -> fst (parse s)

(* --- writing ----------------------------------------------------------- *)

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Atomically publish a file holding just the header: written to a temp
   name in the same directory, then renamed into place — a reader sees
   either the old file or the new one, never a partial header. *)
let publish_empty path =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".idcache" ".tmp" in
  let oc = open_out_bin tmp in
  let buf = Buffer.create header_len in
  Buffer.add_string buf magic;
  Buffer.add_uint16_le buf version;
  output_string oc (Buffer.contents buf);
  close_out oc;
  Unix.rename tmp path

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd s !pos (len - !pos)
  done

let with_lock path f =
  mkdirs (Filename.dirname path);
  let lock_fd =
    Unix.openfile (path ^ ".lock") [ Unix.O_CREAT; Unix.O_WRONLY ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close lock_fd)
    (fun () ->
      Unix.lockf lock_fd Unix.F_LOCK 0;
      Fun.protect ~finally:(fun () -> Unix.lockf lock_fd Unix.F_ULOCK 0) f)

let append path entries =
  if entries <> [] then
    with_lock path (fun () ->
        (* Under the lock: find the valid prefix as it stands now (another
           process may have appended since we loaded), repair a torn tail
           or a bad header, then append whole records in one write. *)
        let valid_end =
          match read_file path with
          | None ->
            publish_empty path;
            header_len
          | Some s -> (
            match parse s with
            | _, Some pos -> pos
            | _, None ->
              publish_empty path;
              header_len)
        in
        let buf = Buffer.create 1024 in
        List.iter (encode buf) entries;
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.ftruncate fd valid_end;
            ignore (Unix.lseek fd 0 Unix.SEEK_END);
            write_all fd (Buffer.contents buf)))
