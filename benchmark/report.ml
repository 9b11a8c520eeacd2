(* One workload run's results: every metric as a "workload metric value
   unit" line, the failed output checks, and the closing JSON line. *)

type t = {
  workload : string;
  mutable values : (string * float * string) list;  (* newest first *)
  mutable problems : string list;
  mutable attempted : int;
  mutable failed : int;
}

let create workload = { workload; values = []; problems = []; attempted = 0; failed = 0 }

let set r name unit value =
  r.values <- (name, value, unit) :: List.filter (fun (n, _, _) -> n <> name) r.values

let get r name =
  List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.values

(* An output check.  A failed one makes the run incorrect: the result
   line says so and the process exits non-zero. *)
let check r ok fmt =
  Printf.ksprintf (fun msg -> if not ok then r.problems <- msg :: r.problems) fmt

let correct r = r.problems = []

let print_lines r =
  List.iter
    (fun (name, value, unit) ->
      Printf.printf "%s %s %s %s\n" r.workload name (Json.number value) unit)
    (List.rev r.values);
  List.iter (fun p -> Printf.printf "%s CHECK FAILED: %s\n" r.workload p) (List.rev r.problems)

(* The last line of output: the [specs] metrics only. *)
let result_line r (specs : Metrics.spec list) =
  List.iter (fun (s : Metrics.spec) -> check r (get r s.name <> None) "%s not measured" s.name) specs;
  let metric (s : Metrics.spec) =
    let value = Option.value ~default:0.0 (get r s.name) in
    (s.name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str s.unit) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", Json.Obj (List.map metric specs));
       ])
