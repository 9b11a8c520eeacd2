(* vgbench compare BASE NEW: judge a change against its parent.

   BASE and NEW are directories of run logs, one file per run holding
   the standard output of "vgbench --workload W --seed N --trace 0".
   Run them in pairs, alternating which side goes first, with the same
   seeds on both sides.  Bounds come from BENCHMARK.json in the current
   directory.  Prints one row per (metric, workload):

   - exact metrics (simulated cycles, allocation) must match bit for
     bit on every seed run on both sides: "same" or "changed";
   - host metrics need at least ten alternating pairs.  "better" needs
     wins in nine tenths of the pairs and a median gap wider than the
     parent's interquartile range; "worse" means the median moved the
     wrong way by more than the bound; "unresolved" means too few
     pairs, or a parent spread wider than the bound with the runs
     overlapping.

   Exits 1 if any row is "worse" or "changed". *)

type run = {
  workload : string;
  seed : int;
  started : float;
  values : (string * float) list;
}

(* The header line and the "workload metric value unit" lines of one
   log. *)
let parse_log path =
  let ic = open_in path in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let header = ref None and values = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "#"; "vgbench"; w; s; _; _; t ] -> (
          let field prefix v =
            if String.starts_with ~prefix v then
              Some (String.sub v (String.length prefix) (String.length v - String.length prefix))
            else None
          in
          match (field "workload=" w, field "seed=" s, field "started=" t) with
          | Some w, Some s, Some t -> header := Some (w, int_of_string s, float_of_string t)
          | _ -> ())
      | [ _; metric; value; _ ] -> (
          match float_of_string_opt value with
          | Some v -> values := (metric, v) :: !values
          | None -> ())
      | _ -> ())
    lines;
  match !header with
  | Some (workload, seed, started) -> Some { workload; seed; started; values = !values }
  | None -> None

let load dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f -> parse_log (Filename.concat dir f))

type bound = { spec : Metrics.spec; bound : float }

let bounds () =
  let j = Json.read_file "BENCHMARK.json" in
  Json.to_list (Option.value ~default:(Json.Arr []) (Json.member "end_to_end" j))
  |> List.filter_map (fun m ->
         match
           ( Option.bind (Json.member "name" m) Json.to_str,
             Option.bind (Json.member "bound" m) Json.to_num )
         with
         | Some name, Some bound ->
             Option.map (fun spec -> { spec; bound }) (Metrics.find name)
         | _ -> None)

let value metric r = List.assoc_opt metric r.values

(* Relative change of [next] against [base], positive when worse. *)
let worse_by (spec : Metrics.spec) ~base ~next =
  let d = (next -. base) /. Float.abs base in
  match spec.better with Metrics.Lower -> d | Metrics.Higher -> -.d

let verdict_exact metric base next =
  let by_seed runs = List.filter_map (fun r -> Option.map (fun v -> (r.seed, v)) (value metric r)) runs in
  let b = by_seed base and n = by_seed next in
  let common = List.filter (fun (s, _) -> List.mem_assoc s n) b in
  if common = [] then "unresolved (no common seed)"
  else if List.for_all (fun (s, v) -> List.assoc s n = v) common then "same"
  else "changed"

let verdict_host { spec; bound } base next =
  (* The i-th run of each side, in start order, form pair i. *)
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs =
    zip base next
    |> List.filter_map (fun (b, n) ->
           match (value spec.name b, value spec.name n) with
           | Some vb, Some vn -> Some (b.started < n.started, vb, vn)
           | _ -> None)
  in
  let rec alternating = function
    | (a, _, _) :: ((b, _, _) :: _ as rest) -> a <> b && alternating rest
    | _ -> true
  in
  let alternating = alternating pairs in
  let bs = List.map (fun (_, b, _) -> b) pairs and ns = List.map (fun (_, _, n) -> n) pairs in
  let base_med = Stats.median bs and next_med = Stats.median ns in
  let q1, q3 = Stats.quartiles bs in
  let better a b = worse_by spec ~base:b ~next:a < 0.0 in
  let wins = List.length (List.filter (fun (_, b, n) -> better n b) pairs) in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> better n b) bs) ns in
  let moved = worse_by spec ~base:base_med ~next:next_med in
  if List.length pairs < 10 then "unresolved (fewer than 10 pairs)"
  else if not alternating then "unresolved (pairs not alternating)"
  else if Stats.spread bs > bound && not all_better then "unresolved (spread > bound)"
  else if moved < 0.0 && wins * 10 >= 9 * List.length pairs && Float.abs (next_med -. base_med) > q3 -. q1
  then "better"
  else if moved > bound then "worse"
  else "same"

let run ~base ~next =
  let base = load base and next = load next in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) base) in
  let failed = ref false in
  Printf.printf "%-22s %-16s %14s %14s %9s  %s\n" "metric" "workload" "base" "new" "change"
    "verdict";
  List.iter
    (fun (b : bound) ->
      List.iter
        (fun w ->
          let of_w runs =
            List.filter (fun r -> r.workload = w) runs
            |> List.sort (fun a b -> compare a.started b.started)
          in
          let base = of_w base and next = of_w next in
          let med runs = Stats.median (List.filter_map (value b.spec.name) runs) in
          let verdict =
            if b.spec.exact then verdict_exact b.spec.name base next else verdict_host b base next
          in
          if verdict = "worse" || verdict = "changed" then failed := true;
          let mb = med base and mn = med next in
          Printf.printf "%-22s %-16s %14.6g %14.6g %+8.2f%%  %s\n" b.spec.name w mb mn
            (if mb = 0.0 then 0.0 else 100.0 *. (mn -. mb) /. Float.abs mb)
            verdict)
        workloads)
    (bounds ());
  if !failed then 1 else 0
