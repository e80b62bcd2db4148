(* The runner's determinism contract: order-preserving merge (results
   byte-identical for every pool size) and a pool that joins every
   domain even when the work raises. *)

let case name f = Alcotest.test_case name `Quick f

(* A task whose completion order under a real pool differs from its
   submission order: early items spin longest. *)
let lopsided i =
  let spins = (20 - i) * 10_000 in
  let acc = ref ((i + 1) * 7919) in
  for _ = 1 to spins do
    acc := !acc * 48271 mod 0x7fffffff
  done;
  (i, !acc)

let test_map_matches_serial () =
  let items = List.init 20 Fun.id in
  let serial = List.map lopsided items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "jobs=%d equals serial" jobs)
        serial
        (Runner.map ~jobs lopsided items))
    [ 1; 2; 4; 7 ]

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Runner.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Runner.map ~jobs:4 (fun x -> x * 9) [ 1 ])

let test_sweep_pairs_points () =
  let points = [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list (pair int int)))
    "each point paired with its result, in order"
    (List.map (fun p -> (p, p * p)) points)
    (Runner.sweep ~jobs:4 (fun p -> p * p) points)

exception Boom of int

let test_pool_joins_on_raise () =
  Alcotest.(check int) "no live domains before" 0 (Runner.live_domains ());
  let raised =
    match
      Runner.map ~jobs:4
        (fun i -> if i mod 3 = 1 then raise (Boom i) else i)
        (List.init 12 Fun.id)
    with
    | _ -> None
    | exception Boom i -> Some i
  in
  (* Deterministic choice: the smallest failing index, not whichever
     worker lost the race. *)
  Alcotest.(check (option int)) "smallest failing item re-raised" (Some 1) raised;
  Alcotest.(check int) "all domains joined after the raise" 0 (Runner.live_domains ());
  Alcotest.(check (list int)) "pool still works afterwards" [ 0; 2; 4 ]
    (Runner.map ~jobs:2 (fun i -> 2 * i) [ 0; 1; 2 ])

let test_registry_output_jobs_invariant () =
  (* `exp` byte-identical between --jobs 1 and --jobs 4, at the library
     layer the CLI prints from: render a cheap registry subset. *)
  let entries =
    List.filter_map Experiments.Registry.find [ "E1"; "A7" ]
  in
  Alcotest.(check int) "both experiments found" 2 (List.length entries);
  let render jobs =
    Runner.map ~jobs
      (fun (e : Experiments.Registry.entry) -> e.run ~quick:true)
      entries
    |> List.map (Format.asprintf "%a" Experiments.Common.pp_result)
    |> String.concat "\n"
  in
  let serial = render 1 in
  Alcotest.(check string) "rendered reports identical for jobs=4" serial (render 4);
  Alcotest.(check bool) "reports are non-trivial" true (String.length serial > 100)

(* Scoped pool: thunks all execute exactly once per round, rounds are
   barriers, and teardown always happens — the shape the engine's
   parallel dispatch windows lean on. *)
let test_scoped_run_rounds () =
  Alcotest.(check int) "no live domains before" 0 (Runner.live_domains ());
  let out =
    Runner.scoped ~jobs:4 (fun pool ->
        Alcotest.(check bool) "pool_size within the request" true
          (Runner.pool_size pool >= 1 && Runner.pool_size pool <= 4);
        let acc = Array.make 8 0 in
        (* Two rounds back to back: the second reads what the first
           wrote, which is only safe because run is a full barrier. *)
        Runner.run pool
          (Array.init 8 (fun i () -> acc.(i) <- (i + 1) * 3));
        Runner.run pool (Array.init 8 (fun i () -> acc.(i) <- acc.(i) + i));
        acc)
  in
  Alcotest.(check (list int)) "both rounds applied to every slot"
    (List.init 8 (fun i -> ((i + 1) * 3) + i))
    (Array.to_list out);
  Alcotest.(check int) "all domains joined after the block" 0
    (Runner.live_domains ())

let test_scoped_run_raise () =
  let raised =
    match
      Runner.scoped ~jobs:3 (fun pool ->
          Runner.run pool
            (Array.init 9 (fun i () -> if i mod 4 = 2 then raise (Boom i))))
    with
    | () -> None
    | exception Boom i -> Some i
  in
  Alcotest.(check (option int)) "smallest failing thunk re-raised" (Some 2)
    raised;
  Alcotest.(check int) "domains joined after the raise" 0
    (Runner.live_domains ())

(* Oversubscription cap: with the ambient budget pinned to 1 the scoped
   pool must not spawn any worker — and the rounds still execute, in the
   caller. *)
let test_scoped_respects_budget () =
  let saved = Runner.default_jobs () in
  Runner.set_default_jobs 1;
  Fun.protect
    ~finally:(fun () -> Runner.set_default_jobs saved)
    (fun () ->
      Runner.scoped ~jobs:4 (fun pool ->
          Alcotest.(check int) "budget of 1 spawns no workers" 0
            (Runner.live_domains ());
          Alcotest.(check int) "pool_size reports the granted size" 1
            (Runner.pool_size pool);
          let hits = Array.make 5 false in
          Runner.run pool (Array.init 5 (fun i () -> hits.(i) <- true));
          Alcotest.(check bool) "every thunk still ran" true
            (Array.for_all Fun.id hits)))

let test_default_jobs () =
  let saved = Runner.default_jobs () in
  Alcotest.(check bool) "default is positive" true (saved >= 1);
  Runner.set_default_jobs 3;
  Alcotest.(check int) "override visible" 3 (Runner.default_jobs ());
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Runner.set_default_jobs: jobs must be >= 1") (fun () ->
      Runner.set_default_jobs 0);
  Runner.set_default_jobs saved

let suite =
  [
    case "map equals serial for every pool size" test_map_matches_serial;
    case "map on empty and singleton lists" test_map_empty_and_singleton;
    case "sweep pairs grid points with results" test_sweep_pairs_points;
    case "pool joins all domains when work raises" test_pool_joins_on_raise;
    case "scoped pool runs barrier rounds" test_scoped_run_rounds;
    case "scoped pool re-raises smallest thunk index" test_scoped_run_raise;
    case "scoped pool respects the domain budget" test_scoped_respects_budget;
    case "registry output identical across jobs" test_registry_output_jobs_invariant;
    case "default jobs override" test_default_jobs;
  ]
