type check = { name : string; pass : bool; detail : string }

type result = {
  id : string;
  title : string;
  tables : Analysis.Table.t list;
  checks : check list;
}

let check ~name ~pass fmt =
  Format.kasprintf (fun detail -> { name; pass; detail }) fmt

let all_pass r = List.for_all (fun c -> c.pass) r.checks

let pp_result fmt r =
  Format.fprintf fmt "@[<v>### %s: %s@,@," r.id r.title;
  List.iter (fun t -> Format.fprintf fmt "%a@," Analysis.Table.pp t) r.tables;
  List.iter
    (fun c ->
      Format.fprintf fmt "[%s] %s — %s@," (if c.pass then "PASS" else "FAIL") c.name
        c.detail)
    r.checks;
  Format.fprintf fmt "@]"

type run = {
  sim : Gcs.Sim.t;
  recorder : Gcs.Metrics.recorder;
  invariants : Gcs.Invariant.monitor;
}

let launch ?(watch = []) ?(churn = []) ?(sample_every = 1.0) cfg ~horizon =
  let sim = Gcs.Sim.create cfg in
  let engine = Gcs.Sim.engine sim in
  let view = Gcs.Sim.view sim in
  let recorder = Gcs.Metrics.recorder engine ~watch in
  let invariants =
    Gcs.Invariant.checker ~n:view.Gcs.Metrics.n ~params:(Gcs.Sim.params sim)
      ~faults:cfg.Gcs.Sim.faults ()
  in
  Gcs.Metrics.every engine view ~every:sample_every ~until:horizon (fun snap ->
      Gcs.Metrics.record recorder snap;
      Gcs.Invariant.observe invariants snap);
  Topology.Churn.schedule engine churn;
  Gcs.Sim.run_until sim horizon;
  { sim; recorder; invariants }

let invariants_check run =
  let violations = Gcs.Invariant.violations run.invariants in
  check ~name:"logical-clock validity" ~pass:(violations = [])
    "%d violations over %d probes (monotone, rate >= 1-rho, L <= Lmax)"
    (List.length violations)
    (Gcs.Invariant.probes run.invariants)
