(* Shared reporting for the benchmark harness: every experiment prints
   its human-readable table as before AND accumulates machine-readable
   rows, written as BENCH_<experiment>.json on [finish] — the same
   schema family as BENCH_executor.json, so the driver can diff any
   table or figure across PRs without scraping stdout. *)

type t = {
  name : string;
  title : string;
  mutable rev_rows : Obs_json.t list;
  mutable rev_notes : string list;
}

let create ~name ~title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n";
  { name; title; rev_rows = []; rev_notes = [] }

(* Human-only output: prints exactly like the Printf tables it
   replaces. *)
let line _t s = print_string s

let linef t fmt = Printf.ksprintf (line t) fmt

(* A machine-readable row.  [label] names the row ("null syscall",
   "64KB", ...); [fields] carry the measurements. *)
let row t ~label fields =
  t.rev_rows <- Obs_json.Obj (("name", Obs_json.String label) :: fields) :: t.rev_rows

(* A remark recorded in the JSON and printed to the table. *)
let note t s =
  t.rev_notes <- s :: t.rev_notes;
  Printf.printf "%s\n" s

let num f = Obs_json.Float f
let int n = Obs_json.Int n
let str s = Obs_json.String s
let bool b = Obs_json.Bool b

let to_json t : Obs_json.t =
  Obs_json.Obj
    [
      ("experiment", Obs_json.String t.name);
      ("title", Obs_json.String t.title);
      ("schema", Obs_json.String "virtual-ghost-bench/1");
      ("rows", Obs_json.List (List.rev t.rev_rows));
      ( "notes",
        Obs_json.List (List.rev_map (fun s -> Obs_json.String s) t.rev_notes) );
    ]

let finish t =
  let path = Printf.sprintf "BENCH_%s.json" t.name in
  (* Write-then-rename: an experiment that dies mid-write must never
     leave a truncated BENCH_*.json behind for the driver to parse as
     if it were a complete report. *)
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out tmp in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_string oc (Obs_json.to_string (to_json t));
         output_char oc '\n')
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  Printf.printf "wrote %s\n" path

(* Run [f] with a fresh hub carrying a stats sink; [f] boots the
   machines it measures on that hub.  Returns the result and the
   per-tag attribution.  Attaching a sink never changes simulated
   cycles. *)
let with_stats f =
  let st = Obs_stats.create () in
  let obs = Obs.create () in
  let result = Obs.with_sink obs (Obs_stats.sink st) (fun () -> f obs) in
  (result, st)
