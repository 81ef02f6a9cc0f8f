(* BENCHMARK.json is the single source of truth for workload names, metric
   names, units, directions and bounds: the benchmark checks every result it
   emits or reads against it, so a metric cannot go missing silently. *)

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;  (** share of the baseline median; 0 for per-layer metrics *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let file = "BENCHMARK.json"

(* The repository root is the nearest directory upwards holding
   BENCHMARK.json; every input path is relative to it. Searching upwards
   lets one binary run from the checkout root and from dune's build
   directory. *)
let find_root () =
  let rec up dir depth =
    if Sys.file_exists (Filename.concat dir file) then Some dir
    else
      let parent = Filename.dirname dir in
      if depth = 0 || parent = dir then None else up parent (depth - 1)
  in
  up (Sys.getcwd ()) 4

let metric ~with_bound json =
  let better = Json.str (Json.field "better" json) in
  if better <> "lower" && better <> "higher" then
    failwith (Printf.sprintf "better must be lower or higher, not %S" better);
  {
    name = Json.str (Json.field "name" json);
    unit_ = Json.str (Json.field "unit" json);
    lower_is_better = better = "lower";
    bound = (if with_bound then Json.num (Json.field "bound" json) else 0.0);
  }

let load root =
  let path = Filename.concat root file in
  let json = Json.read_file path in
  try
    {
      workloads =
        List.map (fun w -> Json.str (Json.field "name" w)) (Json.list (Json.field "workloads" json));
      end_to_end = List.map (metric ~with_bound:true) (Json.list (Json.field "end_to_end" json));
      per_layer = List.map (metric ~with_bound:false) (Json.list (Json.field "per_layer" json));
    }
  with Failure e -> failwith (Printf.sprintf "%s: %s" path e)

let find metrics name = List.find_opt (fun m -> m.name = name) metrics

(* [Error] names a declared metric that is absent or a present metric that
   is not declared. *)
let check_names ~what declared present =
  match
    ( List.find_opt (fun m -> not (List.mem m.name present)) declared,
      List.find_opt (fun n -> find declared n = None) present )
  with
  | None, None -> Ok ()
  | Some m, _ -> Error (Printf.sprintf "%s metric %s is missing" what m.name)
  | None, Some n -> Error (Printf.sprintf "%s metric %s is not declared in %s" what n file)
