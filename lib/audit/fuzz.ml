type failure = { original : Scenario.t; shrunk : Scenario.t; report : Report.t }

type outcome = { scenarios_run : int; failures : failure list }

let fails s = not (Report.ok (Scenario.run s))

(* Candidate simplifications in priority order: each returns a strictly
   "smaller" scenario or None if the knob is already minimal. The greedy
   pass takes the first candidate that still fails and restarts, so a
   given failing scenario always walks the same path to its fixpoint. *)
(* Keep only fault ops whose nodes survive a shrink of n. Crash and
   restart name the same node, so they are kept or dropped together and
   the alternation rule stays satisfied. *)
let fault_fit n sched =
  List.filter
    (fun op ->
      match op with
      | Dsim.Fault.Crash { node; _ }
      | Dsim.Fault.Restart { node; _ }
      | Dsim.Fault.Byzantine { node; _ } -> node < n
      | Dsim.Fault.Duplicate { src; dst; _ } | Dsim.Fault.Reorder { src; dst; _ } ->
        src < n && dst < n)
    sched

let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l

let candidates s =
  List.filter_map
    (fun c -> c)
    [
      (* Faults shrink first: a failure that survives without its fault
         schedule is an ordinary engine/algorithm bug, not a fault bug. *)
      (match s.Scenario.faults with
      | [] -> None
      | _ -> Some { s with Scenario.faults = [] });
      (match s.Scenario.faults with
      | [] | [ _ ] -> None
      | f -> Some { s with Scenario.faults = drop_last f });
      (if s.Scenario.churn then Some { s with Scenario.churn = false } else None);
      (if s.Scenario.horizon > 30. then
         Some { s with Scenario.horizon = Float.max 30. (s.Scenario.horizon /. 2.) }
       else None);
      (if s.Scenario.n > 4 then
         Some
           {
             s with
             Scenario.n = s.Scenario.n - 1;
             faults = fault_fit (s.Scenario.n - 1) s.Scenario.faults;
           }
       else None);
      (if s.Scenario.n > 4 then
         Some { s with Scenario.n = 4; faults = fault_fit 4 s.Scenario.faults }
       else None);
      (if s.Scenario.drift <> 0 then Some { s with Scenario.drift = 0 } else None);
      (if s.Scenario.delay <> 0 then Some { s with Scenario.delay = 0 } else None);
      (if s.Scenario.topo <> 0 then Some { s with Scenario.topo = 0 } else None);
    ]

(* The generic greedy fixpoint: take the first candidate that still
   fails and restart from it, so a given failing input always walks the
   same path to its minimum. Polymorphic so other spec types (e.g. the
   model explorer's counterexample specs) shrink with the same engine. *)
let greedy ~fails ~candidates s =
  if not (fails s) then s
  else begin
    let rec go s =
      match List.find_opt fails (candidates s) with
      | Some smaller -> go smaller
      | None -> s
    in
    go s
  end

let shrink_with ~fails s = greedy ~fails ~candidates s

let shrink s = shrink_with ~fails s

let run ?jobs ?(faults = false) ~seed ~count () =
  if count < 0 then invalid_arg "Fuzz.run: count must be non-negative";
  (* Scenarios are drawn serially from the one seeded stream (explicit
     recursion: the draw order is the spec), so the scenario set — every
     per-scenario seed included — is identical whatever the pool size.
     Audits and shrinks then fan out; Runner.map returns results in draw
     order, so the failure list (the order failures are reported and
     shrunk in) matches the serial path byte for byte. *)
  let scenarios =
    let prng = Dsim.Prng.of_int seed in
    let rec draw acc k =
      if k = 0 then List.rev acc
      else draw (Scenario.generate ~faults prng :: acc) (k - 1)
    in
    draw [] count
  in
  let failures =
    Runner.map ?jobs
      (fun s ->
        let report = Scenario.run s in
        if Report.ok report then None
        else
          let shrunk = shrink s in
          Some { original = s; shrunk; report = Scenario.run shrunk })
      scenarios
    |> List.filter_map Fun.id
  in
  { scenarios_run = count; failures }

let pp_failure fmt f =
  Format.fprintf fmt "@[<v>replay spec: %s@,(original:  %s)@,%a@]"
    (Scenario.to_spec f.shrunk) (Scenario.to_spec f.original) Report.pp f.report
