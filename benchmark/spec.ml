(* BENCHMARK.json: the workloads, the metrics with their units, and the
   regression bounds the comparison applies. *)

module J = Astitch_obs.Json_check

type metric = {
  name : string;
  unit : string;
  lower_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : float;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let field k o =
  match J.member k o with Some v -> v | None -> failwith ("BENCHMARK.json: missing \"" ^ k ^ "\"")

let str k o =
  match J.as_str (field k o) with Some s -> s | None -> failwith ("BENCHMARK.json: \"" ^ k ^ "\" is not a string")

let arr k o =
  match J.as_arr (field k o) with Some a -> a | None -> failwith ("BENCHMARK.json: \"" ^ k ^ "\" is not an array")

let metric o =
  {
    name = str "name" o;
    unit = str "unit" o;
    lower_is_better =
      (match str "better" o with
      | "lower" -> true
      | "higher" -> false
      | b -> failwith ("BENCHMARK.json: better must be lower or higher, not " ^ b));
    bound = Option.bind (J.member "bound" o) J.as_num;
  }

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.parse text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok o ->
      {
        run_seconds =
          (match J.as_num (field "run_seconds" o) with
          | Some s -> s
          | None -> failwith "BENCHMARK.json: run_seconds is not a number");
        workloads = List.map (str "name") (arr "workloads" o);
        end_to_end = List.map metric (arr "end_to_end" o);
        per_layer = List.map metric (arr "per_layer" o);
      }
