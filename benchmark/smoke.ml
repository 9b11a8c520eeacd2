(* Smoke test for vgbench, run by "dune runtest":

     smoke.exe VGBENCH_EXE BENCHMARK_JSON

   - BENCHMARK.json names the same metrics, units and directions as the
     catalogue in Metrics;
   - every workload, run twice at tiny scale with one seed, passes its
     output checks with no failed op, prints every end-to-end metric,
     and repeats its exact metrics bit for bit;
   - a traced tiny run puts every per-layer metric in its result line
     and prints the workload's own layer metrics;
   - no benchmark source uses an API the roadmap plans to delete. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %s\n%!" msg)
    fmt

let banned =
  [ "with_engine"; "Exec_engine"; "Obs.default"; "Kernel.boot"; "Machine.create"; "Bench_report" ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* This file names the banned identifiers, so it is not scanned. *)
let check_sources () =
  Sys.readdir "." |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml" && f <> "smoke.ml")
  |> List.iter (fun f ->
         let src = In_channel.with_open_bin f In_channel.input_all in
         List.iter (fun id -> if contains src id then fail "%s uses %s" f id) banned)

let check_catalogue bench =
  let specs key =
    Json.to_list (Option.value ~default:(Json.Arr []) (Json.member key bench))
    |> List.map (fun m ->
           let str k = Option.value ~default:"" (Option.bind (Json.member k m) Json.to_str) in
           (str "name", str "unit", str "better"))
  in
  let ours (l : Metrics.spec list) =
    List.map (fun (s : Metrics.spec) -> (s.name, s.unit, Metrics.better_to_string s.better)) l
  in
  if specs "end_to_end" <> ours Metrics.end_to_end then
    fail "BENCHMARK.json end_to_end differs from Metrics.end_to_end";
  if specs "per_layer" <> ours Metrics.per_layer then
    fail "BENCHMARK.json per_layer differs from Metrics.per_layer"

(* Run vgbench; returns its output lines and the parsed last line. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = String.split_on_char '\n' (String.trim out) in
  if status <> Unix.WEXITED 0 then fail "vgbench %s exited non-zero" (String.concat " " args);
  let result =
    try Json.parse (List.nth lines (List.length lines - 1))
    with _ ->
      fail "vgbench %s: last line is not JSON" (String.concat " " args);
      Json.Obj []
  in
  (lines, result)

let metric result name = Option.bind (Json.member "metrics" result) (Json.member name)

let check_run w result (specs : Metrics.spec list) =
  if Json.member "correct" result <> Some (Json.Bool true) then fail "%s: not correct" w;
  if Json.member "failed" result <> Some (Json.Num 0.0) then fail "%s: failed ops" w;
  List.iter
    (fun (s : Metrics.spec) ->
      match Option.bind (metric result s.name) (Json.member "unit") with
      | Some (Json.Str u) when u = s.unit -> ()
      | _ -> fail "%s: %s missing or with the wrong unit" w s.name)
    specs

let () =
  let exe, bench_path =
    match Sys.argv with [| _; exe; bench |] -> (exe, bench) | _ -> failwith "usage"
  in
  check_sources ();
  let bench = Json.read_file bench_path in
  check_catalogue bench;
  let workloads =
    Json.to_list (Option.value ~default:(Json.Arr []) (Json.member "workloads" bench))
    |> List.filter_map (fun w -> Option.bind (Json.member "name" w) Json.to_str)
  in
  List.iter
    (fun w ->
      let args trace = [ "--workload"; w; "--seed"; "7"; "--tiny"; "--trace"; trace ] in
      let lines, first = run exe (args "0") in
      let _, second = run exe (args "0") in
      check_run w first Metrics.end_to_end;
      if not (List.mem (w ^ " error_rate 0 frac") lines) then fail "%s: error_rate is not 0" w;
      List.iter
        (fun (s : Metrics.spec) ->
          if s.exact && metric first s.name <> metric second s.name then
            fail "%s: %s differs between identical runs" w s.name)
        Metrics.end_to_end;
      let lines, traced = run exe (args "1") in
      check_run w traced Metrics.per_layer;
      List.iter
        (fun name ->
          if not (List.exists (fun l -> String.starts_with ~prefix:(w ^ " " ^ name ^ " ") l) lines)
          then fail "%s: %s not printed" w name)
        (Option.value ~default:[] (List.assoc_opt w Metrics.workload_layers)))
    workloads;
  if workloads = [] then fail "BENCHMARK.json lists no workloads";
  if !failures > 0 then exit 1
