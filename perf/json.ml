(* Strict accessors over Obs_json values: a missing key or a value of the
   wrong type raises [Failure], which the benchmark reports as an invalid
   document instead of reading a default. *)

let field key json =
  match Obs_json.member key json with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing key %S" key)

let num = function
  | Obs_json.Int i -> float_of_int i
  | Obs_json.Float f -> f
  | _ -> failwith "expected a number"

let int = function Obs_json.Int i -> i | _ -> failwith "expected an integer"
let str = function Obs_json.String s -> s | _ -> failwith "expected a string"
let bool = function Obs_json.Bool b -> b | _ -> failwith "expected a boolean"
let list = function Obs_json.List l -> l | _ -> failwith "expected a list"
let obj = function Obs_json.Obj l -> l | _ -> failwith "expected an object"

let parse ~what text =
  match Obs_json.parse text with
  | Ok json -> json
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let read_file path = parse ~what:path (In_channel.with_open_bin path In_channel.input_all)
