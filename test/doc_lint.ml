(* Interface-documentation lint (DESIGN.md §10, "Documentation build").

   The container building this repo has no odoc, so `dune build @doc` cannot
   act as the documentation gate. This tool checks the properties that make
   odoc runs fail, directly on the source `.mli` files:

   - the file opens with a module synopsis [(** ... *)];
   - every doc comment's odoc markup is well-formed: balanced [{ }] around
     markup constructs, terminated code spans [[...]] and code blocks
     [{[ ... ]}], non-empty [{!...}] references;
   - comment delimiters themselves are balanced.

   Usage: doc_lint.exe DIR... [--strict DIR...] — checks every .mli under
   the given directories (non-recursive). Directories after --strict are
   additionally held to full value coverage: every `val` declaration must
   carry an attached doc comment (directly above, on the same line, or in
   the lines immediately below — the placements odoc attaches). Exits 1
   listing each offending file:line. Where odoc is installed,
   `dune build @doc` remains the full build. *)

let errors = ref 0

let err file line fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.eprintf "%s:%d: %s\n" file line msg)
    fmt

(* Extract comments, tracking nesting; returns (start_line, is_doc, body). *)
let comments file s =
  let n = String.length s in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '\n' -> incr line
    | '(' when !i + 1 < n && s.[!i + 1] = '*' ->
      let start_line = !line in
      let start = !i in
      let depth = ref 0 in
      let j = ref !i in
      let finished = ref false in
      while (not !finished) && !j < n do
        if !j + 1 < n && s.[!j] = '(' && s.[!j + 1] = '*' then begin
          incr depth;
          j := !j + 2
        end
        else if !j + 1 < n && s.[!j] = '*' && s.[!j + 1] = ')' then begin
          decr depth;
          j := !j + 2;
          if !depth = 0 then finished := true
        end
        else begin
          if s.[!j] = '\n' then incr line;
          incr j
        end
      done;
      if not !finished then err file start_line "unterminated comment"
      else begin
        let body = String.sub s start (!j - start) in
        let is_doc =
          String.length body > 4 && body.[2] = '*' && body.[3] <> '*'
        in
        out := (start_line, is_doc, body) :: !out;
        i := !j - 1
      end
    | _ -> ());
    incr i
  done;
  List.rev !out

(* Check odoc markup inside one doc-comment body. Code spans [...] and code
   blocks {[ ... ]} are verbatim (modulo bracket nesting), everything else
   must keep { } balanced and {! } references non-empty. *)
let check_markup file line body =
  let n = String.length body in
  let braces = ref 0 in
  let i = ref 0 in
  while !i < n do
    (if !i + 1 < n && body.[!i] = '{' && body.[!i + 1] = '[' then begin
       (* code block: skip to the matching ]} *)
       let j = ref (!i + 2) in
       while !j + 1 < n && not (body.[!j] = ']' && body.[!j + 1] = '}') do
         incr j
       done;
       if !j + 1 >= n then err file line "unterminated {[ ... ]} code block";
       i := !j + 1
     end
     else
       match body.[!i] with
       | '[' ->
         (* code span: brackets nest, content is verbatim *)
         let depth = ref 1 in
         let j = ref (!i + 1) in
         while !depth > 0 && !j < n do
           (match body.[!j] with
           | '[' -> incr depth
           | ']' -> decr depth
           | _ -> ());
           incr j
         done;
         if !depth > 0 then err file line "unterminated [...] code span";
         i := !j - 1
       | '{' ->
         incr braces;
         if !i + 1 < n && body.[!i + 1] = '!' then begin
           (* reference: {!Target} must name something *)
           let j = ref (!i + 2) in
           while !j < n && body.[!j] <> '}' do
             incr j
           done;
           if !j >= n then err file line "unterminated {!...} reference"
           else if String.trim (String.sub body (!i + 2) (!j - !i - 2)) = ""
           then err file line "empty {!} reference"
         end
       | '}' ->
         decr braces;
         if !braces < 0 then err file line "unmatched } in doc comment"
       | _ -> ());
    incr i
  done;
  if !braces > 0 then err file line "unclosed { in doc comment"

(* Strict value coverage: every `val` line must have a doc comment ending on
   the previous (or same) line, or starting within the few lines below it —
   the placements odoc attaches to the declaration. The window below the
   `val` must span the longest multi-line signature in the strict set
   (Redundancy.remove is six lines), with room to spare: 8. *)
let check_val_coverage file s cs =
  let docs =
    List.filter_map
      (fun (start_line, is_doc, body) ->
        if not is_doc then None
        else
          let ends = ref start_line in
          String.iter (fun c -> if c = '\n' then incr ends) body;
          Some (start_line, !ends))
      cs
  in
  let line_no = ref 0 in
  String.split_on_char '\n' s
  |> List.iter (fun raw ->
         incr line_no;
         let l = !line_no and t = String.trim raw in
         if String.length t > 4 && String.sub t 0 4 = "val " then
           let attached =
             List.exists
               (fun (ds, de) -> de = l - 1 || de = l || (ds >= l && ds <= l + 8))
               docs
           in
           if not attached then
             err file l "undocumented val (strict coverage): %s" t)

let check_file ~strict file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let cs = comments file s in
  (* Module synopsis: the first doc comment must precede any declaration. *)
  let first_code =
    let rec skip i =
      if i >= String.length s then i
      else
        match s.[i] with
        | ' ' | '\t' | '\n' | '\r' -> skip (i + 1)
        | _ -> i
    in
    skip 0
  in
  (match cs with
  | (1, true, _) :: _ when first_code < String.length s && s.[first_code] = '('
    -> ()
  | _ -> err file 1 "missing module synopsis (** ... *) at the top");
  List.iter (fun (line, is_doc, body) -> if is_doc then check_markup file line body) cs;
  if strict then check_val_coverage file s cs

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then begin
    prerr_endline "usage: doc_lint.exe DIR... [--strict DIR...]";
    exit 2
  end;
  let dirs, strict_dirs =
    match
      List.fold_left
        (fun (normal, strict, seen) a ->
          if a = "--strict" then (normal, strict, true)
          else if seen then (normal, a :: strict, true)
          else (a :: normal, strict, false))
        ([], [], false) args
    with
    | n, st, _ -> (List.rev n, List.rev st)
  in
  let list_mlis dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mli")
    |> List.map (Filename.concat dir)
    |> List.sort compare
  in
  let files =
    List.concat_map (fun d -> List.map (fun f -> (false, f)) (list_mlis d)) dirs
    @ List.concat_map
        (fun d -> List.map (fun f -> (true, f)) (list_mlis d))
        strict_dirs
  in
  List.iter (fun (strict, f) -> check_file ~strict f) files;
  if !errors > 0 then begin
    Printf.eprintf "doc-lint: %d error(s)\n" !errors;
    exit 1
  end;
  Printf.printf "doc-lint: %d interface file(s) clean\n" (List.length files)
