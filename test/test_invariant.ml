module Invariant = Gcs.Invariant
module Metrics = Gcs.Metrics

let case name f = Alcotest.test_case name `Quick f

(* rho = 0.05, so the derived default rate floor is 1 - rho = 0.95. *)
let params = Gcs.Params.make ~n:2 ()

(* Drive the monitor with a synthetic view backed by mutable clocks so we
   can inject violations deliberately. *)
let make_setup () =
  let clocks = [| 0.; 0. |] in
  let lmaxes = [| 0.; 0. |] in
  let view =
    {
      Metrics.n = 2;
      clock_of = (fun i -> clocks.(i));
      lmax_of = (fun i -> lmaxes.(i));
      iter_edges = (fun f -> f 0 1);
    }
  in
  let engine =
    (Dsim.Engine.create
       ~clocks:[| Dsim.Hwclock.perfect; Dsim.Hwclock.perfect |]
       ~delay:(Dsim.Delay.zero ~bound:1.) ~timer_label:Gcs.Proto.timer_label ()
      : (Gcs.Proto.message, Gcs.Proto.timer) Dsim.Engine.t)
  in
  Dsim.Engine.install engine 0 (fun _ ->
      {
        Dsim.Engine.on_init = ignore;
        on_discover_add = ignore;
        on_discover_remove = ignore;
        on_receive = (fun _ _ -> ());
        on_timer = ignore;
      });
  Dsim.Engine.install engine 1 (fun _ ->
      {
        Dsim.Engine.on_init = ignore;
        on_discover_add = ignore;
        on_discover_remove = ignore;
        on_receive = (fun _ _ -> ());
        on_timer = ignore;
      });
  (clocks, lmaxes, view, engine)

let advance clocks lmaxes rate dt =
  Array.iteri (fun i v -> clocks.(i) <- v +. (rate *. dt)) clocks;
  Array.iteri (fun i v -> lmaxes.(i) <- Float.max (v +. dt) clocks.(i)) lmaxes

let test_clean_run () =
  let clocks, lmaxes, view, engine = make_setup () in
  let monitor = Invariant.attach engine view ~params ~every:1. ~until:10. () in
  (* Advance clocks at rate 1 between probes via interleaved callbacks. *)
  let rec push t =
    if t <= 10. then
      Dsim.Engine.at engine ~time:t (fun () ->
          advance clocks lmaxes 1.0 0.5;
          push (t +. 0.5))
  in
  push 0.25;
  Dsim.Engine.run_until engine 10.;
  Alcotest.(check bool) "ok" true (Invariant.ok monitor);
  Alcotest.(check int) "probes" 11 (Invariant.probes monitor)

let test_detects_slow_clock () =
  let clocks, lmaxes, view, engine = make_setup () in
  let monitor = Invariant.attach engine view ~params ~every:1. ~until:5. () in
  let rec push t =
    if t <= 5. then
      Dsim.Engine.at engine ~time:t (fun () ->
          (* rate 0.3 < any sane floor *)
          advance clocks lmaxes 0.3 1.0;
          push (t +. 1.))
  in
  push 0.5;
  Dsim.Engine.run_until engine 5.;
  Alcotest.(check bool) "violation found" false (Invariant.ok monitor);
  let kinds = List.map (fun v -> v.Invariant.kind) (Invariant.violations monitor) in
  Alcotest.(check bool) "min-rate kind" true (List.mem "min-rate" kinds)

let test_detects_lmax_violation () =
  let clocks, lmaxes, view, engine = make_setup () in
  let monitor = Invariant.attach engine view ~params ~every:1. ~until:3. () in
  Dsim.Engine.at engine ~time:0.5 (fun () ->
      clocks.(1) <- 10.;
      lmaxes.(1) <- 5. (* L > Lmax: Property 6.3 broken *));
  Dsim.Engine.at engine ~time:2.5 (fun () ->
      clocks.(0) <- 10.;
      clocks.(1) <- 20.;
      lmaxes.(0) <- 10.;
      lmaxes.(1) <- 20.);
  Dsim.Engine.run_until engine 3.;
  let kinds = List.map (fun v -> v.Invariant.kind) (Invariant.violations monitor) in
  Alcotest.(check bool) "lmax-dominance kind" true (List.mem "lmax-dominance" kinds)

let test_custom_rate_floor () =
  let clocks, lmaxes, view, engine = make_setup () in
  (* rate 0.97 passes the derived 0.95 floor but fails an explicit 0.99 *)
  let monitor =
    Invariant.attach engine view ~params ~every:1. ~until:4. ~rate_floor:0.99 ()
  in
  let rec push t =
    if t <= 4. then
      Dsim.Engine.at engine ~time:t (fun () ->
          advance clocks lmaxes 0.97 1.0;
          push (t +. 1.))
  in
  push 0.5;
  Dsim.Engine.run_until engine 4.;
  Alcotest.(check bool) "0.97 fails 0.99 floor" false (Invariant.ok monitor)

(* Regression for the hard-coded 0.5 floor: a clock crawling at rate 0.8
   violates the algorithm's 1 - rho guarantee but slipped past the old
   default. The derived floor must flag it. *)
let test_default_floor_derived_from_params () =
  let clocks, lmaxes, view, engine = make_setup () in
  let monitor = Invariant.attach engine view ~params ~every:1. ~until:4. () in
  let rec push t =
    if t <= 4. then
      Dsim.Engine.at engine ~time:t (fun () ->
          advance clocks lmaxes 0.8 1.0;
          push (t +. 1.))
  in
  push 0.5;
  Dsim.Engine.run_until engine 4.;
  Alcotest.(check bool) "rate 0.8 < 1 - rho flagged by default" false
    (Invariant.ok monitor);
  (* The same run is fine against the paper's weaker validity floor. *)
  let clocks2, lmaxes2, view2, engine2 = make_setup () in
  let monitor2 =
    Invariant.attach engine2 view2 ~params ~every:1. ~until:4. ~rate_floor:0.5 ()
  in
  let rec push2 t =
    if t <= 4. then
      Dsim.Engine.at engine2 ~time:t (fun () ->
          advance clocks2 lmaxes2 0.8 1.0;
          push2 (t +. 1.))
  in
  push2 0.5;
  Dsim.Engine.run_until engine2 4.;
  Alcotest.(check bool) "rate 0.8 passes explicit 0.5" true (Invariant.ok monitor2)

(* Regression for the absolute eps = 1e-6: at clock magnitude ~1e7, float
   round-off of a few microunits exceeded the old absolute slack and
   fabricated violations on perfectly valid runs. The relative slack must
   tolerate it while a genuine deficit is still flagged (the slow-clock
   test above). *)
let test_relative_tolerance_at_large_magnitude () =
  let clocks, lmaxes, view, engine = make_setup () in
  let base = 1e7 in
  Array.fill clocks 0 2 base;
  Array.fill lmaxes 0 2 base;
  let monitor =
    Invariant.attach engine view ~params ~every:1. ~until:4. ~rate_floor:1.0 ()
  in
  let rec push t =
    if t <= 4. then
      Dsim.Engine.at engine ~time:t (fun () ->
          (* exact-rate advance, minus 2e-6 of round-off noise: below the
             old absolute eps' radar only by fabrication *)
          Array.iteri (fun i v -> clocks.(i) <- v +. 1.0 -. 2e-6) clocks;
          Array.iteri (fun i _ -> lmaxes.(i) <- clocks.(i)) lmaxes;
          push (t +. 1.))
  in
  push 0.5;
  Dsim.Engine.run_until engine 4.;
  Alcotest.(check bool) "round-off at 1e7 not a violation" true (Invariant.ok monitor)

let test_violation_printing () =
  let v = { Invariant.time = 1.5; node = 3; kind = "min-rate"; detail = "x" } in
  let s = Format.asprintf "%a" Invariant.pp_violation v in
  Alcotest.(check bool) "mentions node" true
    (String.length s > 0 && s <> "")

let suite =
  [
    case "clean run" test_clean_run;
    case "detects slow clock" test_detects_slow_clock;
    case "detects L > Lmax" test_detects_lmax_violation;
    case "custom rate floor" test_custom_rate_floor;
    case "default floor is 1 - rho" test_default_floor_derived_from_params;
    case "relative tolerance at 1e7" test_relative_tolerance_at_large_magnitude;
    case "violation printing" test_violation_printing;
  ]
