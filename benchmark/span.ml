(* Host-time spans recorded around the benchmark's own calls into each
   layer: name, start, end and the enclosing span.  Spans stay in
   memory and are written out as a Chrome trace when the run ends.
   With recording off (the untraced run) [with_] is a plain call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 at top level *)
  start : float;
  mutable stop : float;
  mutable child_s : float;  (* host seconds covered by direct children *)
}

let recording = ref false
let spans : span list ref = ref []  (* newest first *)
let open_spans : span list ref = ref []
let next_id = ref 0
let origin = ref 0.0

let start () =
  recording := true;
  origin := Unix.gettimeofday ()

let with_ name f =
  if not !recording then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; parent; start = Unix.gettimeofday (); stop = 0.0; child_s = 0.0 }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        open_spans := List.tl !open_spans;
        (match !open_spans with
        | p :: _ -> p.child_s <- p.child_s +. (s.stop -. s.start)
        | [] -> ());
        spans := s :: !spans)
  end

let self_s s = s.stop -. s.start -. s.child_s

(* Self times, in seconds, of every finished span called [name]. *)
let self_times name =
  List.filter_map (fun s -> if s.name = name then Some (self_s s) else None) !spans

let self_total name = List.fold_left ( +. ) 0.0 (self_times name)

let chrome_trace () =
  let us t = Json.Num (Float.round ((t -. !origin) *. 1e7) /. 10.0) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", us s.start);
        ("dur", Json.Num (Float.round ((s.stop -. s.start) *. 1e7) /. 10.0));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("self_us", Json.Num (Float.round (self_s s *. 1e7) /. 10.0));
            ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev_map event !spans));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome_trace path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (chrome_trace ())))
