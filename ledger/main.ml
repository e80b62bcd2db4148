(* The cost ledger: end-to-end and per-layer cost of five named workloads.

   One run (what BENCHMARK.json's command invokes, via run.sh):
     main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]
   prints a summary and, as its last line, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

   The ledger (every workload, each run in a fresh child process):
     main.exe --ledger [--seed S] [--repeat R] [--out FILE] [--check]
   --check uses tiny sizes, runs only the correctness checks and verifies
   that the output names every metric BENCHMARK.json lists.

   Comparing two ledgers:
     main.exe --compare A.json B.json

   Timings are only meaningful from a release build:
     dune exec --profile release ledger/main.exe -- --ledger *)

module W = Workloads
module Stats = Analysis.Stats

let usage =
  "usage: main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--check]\n\
  \       main.exe --ledger [--seed S] [--repeat R] [--out FILE] [--check]\n\
  \       main.exe --compare A.json B.json\n\
   common: [--benchmark BENCHMARK.json] [--allow-dev-profile]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let argv = Array.to_list Sys.argv |> List.tl

let flag name = List.mem name argv

let value name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | [ k ] when k = name -> die "%s needs a value\n%s" name usage
    | _ :: rest -> find rest
    | [] -> None
  in
  find argv

let int_value name ~default ~min =
  match value name with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some i when i >= min -> i
    | _ -> die "%s needs an integer >= %d (got %s)" name min v)

let size = if flag "--check" then W.Check else W.Full

let seed = int_value "--seed" ~default:1 ~min:0

let benchmark_file = Option.value ~default:"BENCHMARK.json" (value "--benchmark")

(* Metrics every run reports with tracing off: name, unit. *)
let end_to_end =
  [
    ("events_per_s", "1/s");
    ("scenarios_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

(* Set-up samples: each timed unit's, topped up with set-up-only passes
   until there are at least five and they span half a second (tiny
   set-ups take many samples, so their median holds still). *)
let setup_samples w ~units =
  let rec go acc k total =
    if k >= 5 && (total >= 0.5 || k >= 1000) then acc
    else
      let s = W.setup_only w size ~seed in
      go (s :: acc) (k + 1) (total +. s)
  in
  let own = List.map (fun (r : W.result) -> r.setup_s) units in
  go own (List.length own) (List.fold_left ( +. ) 0. own)

(* Does the unit's output match what is pinned, and its siblings? *)
let check_unit w (r : W.result) ~first =
  match r.failure with
  | Some f -> Some f
  | None -> (
    match Pinned.expected w size ~seed with
    | Some d when d <> r.digest ->
      Some (Printf.sprintf "digest %s differs from the pinned %s" r.digest d)
    | _ ->
      if r.digest <> first then
        Some (Printf.sprintf "digest %s differs from the first unit's %s" r.digest first)
      else None)

let json_metrics metrics =
  Json.Obj
    (List.map
       (fun (name, v, unit) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       metrics)

let emit_result ~failures ~attempted metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failures = []));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int (List.length failures)));
            ("metrics", json_metrics metrics);
          ]))

let run_one w ~seconds ~traced =
  let t0 = W.now_ns () in
  (* Timed units, back to back, until the next would overrun [seconds]. *)
  let gen = ref [] and runs = ref [] and stats = ref None in
  let unit () =
    match w with
    | W.Fuzz_faults when traced ->
      W.run_fuzz size ~seed
        ~on_generate:(fun s -> gen := s :: !gen)
        ~on_run:(fun s -> runs := s :: !runs)
    | W.Mcheck_n3 when traced -> W.run_mcheck size ~on_stats:(fun s -> stats := Some s)
    | _ -> W.run w size ~seed
  in
  (* The peak resident set of set-up plus one unit: later units may grow
     the heap further, and how many fit depends on the host's speed. *)
  let rss = ref 0. in
  let rec go acc =
    let u0 = W.now_ns () in
    let r = unit () in
    if acc = [] then rss := W.peak_rss_mb ();
    let acc = r :: acc in
    if traced || W.seconds_since t0 +. W.seconds_since u0 > seconds then List.rev acc
    else go acc
  in
  let units = go [] in
  let first = (List.hd units).W.digest in
  let failures = List.filter_map (fun r -> check_unit w r ~first) units in
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) failures;
  Printf.printf "workload %s seed %d size %s units %d\ndigest: %s\n" (W.name w) seed
    (match size with W.Full -> "full" | W.Check -> "check")
    (List.length units) first;
  let metrics =
    if traced then begin
      let base = List.hd units in
      let measured =
        match w with
        | W.Fuzz_faults -> Layers.fuzz_layers ~base ~generate_s:!gen ~run_s:!runs
        | W.Mcheck_n3 -> Layers.mcheck_layers ~base (Option.get !stats)
        | W.Path64k | W.Path64k_par | W.Churn4k_audit ->
          print_endline
            "note: node.handler_ns_per_event includes the ctx calls into Engine.send and \
             Engine.set_timer; node.handler_share excludes their queue, wheel and trace work";
          Layers.sim_layers w size ~seed ~base
      in
      Layers.complete measured
    end
    else begin
      let rate f = W.median (List.map (fun (r : W.result) -> f r /. r.robust_s) units) in
      [
        ("events_per_s", rate (fun r -> float_of_int r.events), "1/s");
        ("scenarios_per_s", rate (fun r -> float_of_int r.scenarios), "1/s");
        ("setup_s", W.median (setup_samples w ~units), "s");
        ("peak_rss_mb", !rss, "MiB");
      ]
    end
  in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.6g %s\n" name v unit) metrics;
  emit_result ~failures ~attempted:(List.length units) metrics;
  exit 0

(* ------------------------------------------------------------------ *)
(* The ledger                                                           *)
(* ------------------------------------------------------------------ *)

let cpu_model () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
    Option.value ~default:"unknown"
      (List.find_map
         (fun line ->
           match String.split_on_char ':' line with
           | key :: value :: _ when String.trim key = "model name" -> Some (String.trim value)
           | _ -> None)
         (String.split_on_char '\n' text))
  with Sys_error _ -> "unknown"

let git_commit () =
  try
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
    let out = String.trim (In_channel.input_all ic) in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when out <> "" -> out
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let fingerprint () =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("cpu", Json.Str (cpu_model ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("dune_profile", Json.Str Profile.name);
      ("commit", Json.Str (git_commit ()));
    ]

(* Run one child and return its result object plus the digest it
   printed. A child that dies or prints no result counts as a failed
   run. *)
let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out) in
  let digest =
    Option.value ~default:""
      (List.find_map
         (fun l ->
           if String.starts_with ~prefix:"digest: " l then
             Some (String.sub l 8 (String.length l - 8))
           else None)
         lines)
  in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
    match Json.of_string last with
    | j -> (j, digest)
    | exception Json.Parse_error _ -> (Json.Null, ""))
  | _ -> (Json.Null, "")

let metric_value j name = Json.to_float (Json.member "value" (Json.member name (Json.member "metrics" j)))

let summary ~unit values =
  let q p = Stats.percentile p values in
  Json.Obj
    [
      ("unit", Json.Str unit);
      ("median", Json.Num (q 0.5));
      ("q1", Json.Num (q 0.25));
      ("q3", Json.Num (q 0.75));
      ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
    ]

let bench_metrics key =
  match Json.read_file benchmark_file with
  | j -> List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key j))
  | exception (Sys_error _ | Json.Parse_error _) ->
    die "cannot read the metric list from %s" benchmark_file

(* The human ledger: each workload's end-to-end medians with their IQR,
   then its traced run's per-layer metrics. *)
let print_rows rows =
  List.iter
    (fun (w, row) ->
      Printf.printf "\n%s  (digest %s, error_rate %g)\n" (W.name w) (Json.to_str (Json.member "digest" row))
        (Json.to_float (Json.member "error_rate" row));
      List.iter
        (fun (name, unit) ->
          let s = Json.member name (Json.member "end_to_end" row) in
          Printf.printf "  %-18s %14.6g %-4s  IQR [%.6g, %.6g]\n" name
            (Json.to_float (Json.member "median" s)) unit
            (Json.to_float (Json.member "q1" s))
            (Json.to_float (Json.member "q3" s)))
        end_to_end;
      (* The explorer's search is exhaustive, so states and traces are
         fixed counts and states/s is traces/s scaled by their ratio. *)
      (if w = W.Mcheck_n3 then
         let layer name = metric_value (Json.Obj [ ("metrics", Json.member "per_layer" row) ]) name in
         let traces_per_s =
           Json.to_float (Json.member "median" (Json.member "scenarios_per_s" (Json.member "end_to_end" row)))
         in
         Printf.printf "  %-18s %14.6g 1/s\n" "states_per_s"
           (traces_per_s *. layer "explorer.distinct_states" /. layer "explorer.traces"));
      match Json.member "per_layer" row with
      | Json.Obj l ->
        Printf.printf "  traced run:\n";
        List.iter
          (fun (name, m) ->
            Printf.printf "    %-32s %14.6g %s\n" name (Json.to_float (Json.member "value" m))
              (Json.to_str (Json.member "unit" m)))
          l
      | _ -> ())
    rows

let ledger () =
  let repeat = int_value "--repeat" ~default:(if size = W.Check then 1 else 5) ~min:1 in
  let out = Option.value ~default:"ledger.json" (value "--out") in
  let common =
    [ "--seed"; string_of_int seed ]
    @ (if size = W.Check then [ "--check" ] else [])
    @ if flag "--allow-dev-profile" then [ "--allow-dev-profile" ] else []
  in
  let host = fingerprint () in
  Printf.printf "ledger: seed %d, %d run(s) per workload, host %s\n%!" seed repeat
    (Json.to_string host);
  (* Round-robin: run r of every workload before run r+1 of any. *)
  let rounds =
    List.init repeat (fun r ->
        List.map
          (fun w ->
            Printf.printf "  run %d/%d %s\n%!" (r + 1) repeat (W.name w);
            ( w,
              run_child
                ([ "--workload"; W.name w; "--seconds"; "0"; "--trace"; "0" ] @ common) ))
          W.all)
  in
  let traced =
    List.map
      (fun w ->
        Printf.printf "  traced %s\n%!" (W.name w);
        (w, fst (run_child ([ "--workload"; W.name w; "--trace"; "1" ] @ common))))
      W.all
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let rows =
    List.map
      (fun w ->
        let mine = List.concat_map (List.filter (fun (w', _) -> w' = w)) rounds in
        let results = List.map (fun (_, (j, _)) -> j) mine in
        let ok = List.filter (fun j -> Json.member "correct" j = Json.Bool true) results in
        let failed = List.length results - List.length ok in
        let digests = List.sort_uniq compare (List.map (fun (_, (_, d)) -> d) mine) in
        if failed > 0 then problem "%s: %d of %d runs failed" (W.name w) failed repeat;
        if List.length digests > 1 then problem "%s: runs disagree on the digest" (W.name w);
        let tj = List.assoc w traced in
        if Json.member "correct" tj <> Json.Bool true then
          problem "%s: the traced run failed" (W.name w);
        let e2e =
          List.map
            (fun (name, unit) ->
              let values = List.map (fun j -> metric_value j name) ok in
              (name, if values = [] then Json.Null else summary ~unit values))
            end_to_end
        in
        let error_rate = float_of_int failed /. float_of_int (max 1 (List.length results)) in
        ( w,
          Json.Obj
            [
              ("name", Json.Str (W.name w));
              ("host", host);
              ("digest", Json.Str (String.concat "," digests));
              ("error_rate", Json.Num error_rate);
              ("end_to_end", Json.Obj e2e);
              ("per_layer", Json.member "metrics" tj);
            ] ))
      W.all
  in
  let digest w = Json.to_str (Json.member "digest" (List.assoc w rows)) in
  if digest W.Path64k <> digest W.Path64k_par then
    problem "path64k and path64k_par digests differ (%s vs %s)" (digest W.Path64k)
      (digest W.Path64k_par);
  (* The human ledger; --check only reports its verdict. *)
  if size = W.Full then print_rows rows;
  let doc =
    Json.Obj
      [
        ("seed", Json.Num (float_of_int seed));
        ("repeat", Json.Num (float_of_int repeat));
        ("size", Json.Str (if size = W.Check then "check" else "full"));
        ("host", host);
        ("workloads", Json.Arr (List.map snd rows));
      ]
  in
  if size = W.Check then begin
    (* Every metric BENCHMARK.json names must be in the emitted JSON. *)
    let names = bench_metrics "end_to_end" and layer_names = bench_metrics "per_layer" in
    List.iter
      (fun (w, row) ->
        List.iter
          (fun name ->
            if Json.member name (Json.member "end_to_end" row) = Json.Null then
              problem "%s: end-to-end metric %s missing" (W.name w) name)
          names;
        List.iter
          (fun name ->
            if Json.member name (Json.member "per_layer" row) = Json.Null then
              problem "%s: per-layer metric %s missing" (W.name w) name)
          layer_names)
      rows
  end
  else begin
    let oc = open_out out in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nwrote %s\n" out
  end;
  match List.rev !problems with
  | [] ->
    Printf.printf "ledger: all checks passed\n";
    exit 0
  | ps ->
    List.iter (Printf.printf "ledger: %s\n") ps;
    exit 1

(* ------------------------------------------------------------------ *)
(* Comparing two ledgers                                                *)
(* ------------------------------------------------------------------ *)

(* Verdict of B against A for one metric, under its bound from
   BENCHMARK.json: unresolved when either side's IQR, as a share of its
   median, exceeds the bound; otherwise worse or better when the medians
   differ by more than the bound in that direction; otherwise same. *)
let verdict ~bound ~higher ~floor a b =
  let med s = Json.to_float (Json.member "median" s) in
  let spread s = (Json.to_float (Json.member "q3" s) -. Json.to_float (Json.member "q1" s)) /. med s in
  let ma = med a and mb = med b in
  let worse_by = (if higher then ma -. mb else mb -. ma) /. ma in
  if Float.max (spread a) (spread b) > bound then "unresolved"
  else if worse_by > bound && Float.abs (mb -. ma) >= floor then "worse"
  else if -.worse_by > bound && Float.abs (mb -. ma) >= floor then "better"
  else "same"

let compare_ledgers fa fb =
  let read f =
    match Json.read_file f with
    | j -> j
    | exception (Sys_error _ | Json.Parse_error _) -> die "cannot read ledger %s" f
  in
  let a = read fa and b = read fb in
  let bench =
    match Json.read_file benchmark_file with
    | j -> Json.to_list (Json.member "end_to_end" j)
    | exception (Sys_error _ | Json.Parse_error _) -> die "cannot read %s" benchmark_file
  in
  let rows j = List.map (fun r -> (Json.to_str (Json.member "name" r), r)) (Json.to_list (Json.member "workloads" j)) in
  let ra = rows a and rb = rows b in
  let worse = ref 0 in
  Printf.printf "%-14s %-16s %14s %14s %8s %8s  %s\n" "workload" "metric" "A median"
    "B median" "B vs A" "bound" "verdict";
  List.iter
    (fun (w, row_a) ->
      match List.assoc_opt w rb with
      | None -> Printf.printf "%-14s only in %s\n" w fa
      | Some row_b ->
        List.iter
          (fun m ->
            let name = Json.to_str (Json.member "name" m) in
            let bound = Json.to_float (Json.member "bound" m) in
            let higher = Json.member "better" m = Json.Str "higher" in
            (* Set-up time only counts as moved past 0.05 s absolute:
               below that, its relative spread is noise. *)
            let floor = if name = "setup_s" then 0.05 else 0. in
            let sa = Json.member name (Json.member "end_to_end" row_a)
            and sb = Json.member name (Json.member "end_to_end" row_b) in
            if sa <> Json.Null && sb <> Json.Null then begin
              let v = verdict ~bound ~higher ~floor sa sb in
              if v = "worse" then incr worse;
              let ma = Json.to_float (Json.member "median" sa)
              and mb = Json.to_float (Json.member "median" sb) in
              Printf.printf "%-14s %-16s %14.6g %14.6g %+7.2f%% %7.1f%%  %s\n" w name ma mb
                (100. *. (mb -. ma) /. ma) (100. *. bound) v
            end)
          bench;
        let ea = Json.to_float (Json.member "error_rate" row_a)
        and eb = Json.to_float (Json.member "error_rate" row_b) in
        let v = if eb > ea then (incr worse; "worse") else if eb < ea then "better" else "same" in
        Printf.printf "%-14s %-16s %14.6g %14.6g %8s %7s   %s\n" w "error_rate" ea eb "" "0" v)
    ra;
  exit (if !worse > 0 then 1 else 0)

(* ------------------------------------------------------------------ *)

let () =
  (* Dev-profile builds pass -opaque, which voids cross-module inlining:
     their timings mean nothing. Refuse them unless the caller only wants
     the correctness checks. *)
  if Profile.name <> "release" && not (flag "--allow-dev-profile") then
    die
      "ledger: built under the '%s' dune profile, where timings are not \
       representative.\nRe-run as:  dune exec --profile release ledger/main.exe -- ...\n\
       or pass --allow-dev-profile to run the checks anyway."
      Profile.name;
  let rec compare_files = function
    | "--compare" :: a :: b :: _ -> Some (a, b)
    | _ :: rest -> compare_files rest
    | [] -> None
  in
  match (value "--workload", compare_files argv) with
  | Some name, _ ->
    let w = match W.of_name name with Some w -> w | None -> die "unknown workload %s\n%s" name usage in
    let seconds = float_of_int (int_value "--seconds" ~default:10 ~min:0) in
    let traced =
      match value "--trace" with
      | None | Some "0" -> false
      | Some "1" -> true
      | Some v -> die "--trace takes 0 or 1 (got %s)" v
    in
    run_one w ~seconds ~traced
  | None, Some (fa, fb) -> compare_ledgers fa fb
  | None, None ->
    if flag "--compare" then die "--compare needs two ledger files\n%s" usage
    else if flag "--ledger" then ledger ()
    else die "%s" usage
