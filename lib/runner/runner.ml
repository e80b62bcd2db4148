(* A scoped domain pool with barrier-synchronized rounds, and [map] as
   one round on it. See runner.mli for the determinism contract. *)

let default =
  let initial =
    match Sys.getenv_opt "GCS_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | Some _ | None -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ()
  in
  Atomic.make initial

let default_jobs () = Atomic.get default

let set_default_jobs jobs =
  if jobs < 1 then invalid_arg "Runner.set_default_jobs: jobs must be >= 1";
  Atomic.set default jobs

let live = Atomic.make 0

let live_domains () = Atomic.get live

let resolve_jobs = function
  | None -> default_jobs ()
  | Some j when j >= 1 -> j
  | Some _ -> invalid_arg "Runner: jobs must be >= 1"

(* Oversubscription cap: every fan-out point (nested maps, scoped pools
   inside experiments) sizes itself independently, so without a global
   brake the process can end up with far more live domains than cores.
   [default_jobs] is the process-wide budget; a new fan-out only gets
   what is left of it. *)
let capped_jobs requested = min requested (max 1 (default_jobs () - Atomic.get live))

(* A scoped pool keeps its worker domains alive across many [run]
   rounds: the engine's parallel dispatch windows fire thousands of tiny
   barrier-synchronized rounds per run_until, and spawning domains per
   round would dominate. Workers sleep on [work] between rounds; the
   caller participates in each round, so a pool of [jobs] runs thunks on
   [jobs] domains total ([jobs - 1] spawned). *)
type pool = {
  pworkers : int; (* spawned worker domains; the caller makes it +1 *)
  pmutex : Mutex.t;
  work : Condition.t; (* a round started, or the pool closed *)
  finished : Condition.t; (* the last thunk of a round completed *)
  mutable thunks : (unit -> unit) array;
  mutable next : int; (* next unclaimed thunk of the current round *)
  mutable remaining : int; (* claimed-or-not thunks not yet completed *)
  mutable failures : (int * exn * Printexc.raw_backtrace) list;
  mutable pclosed : bool;
}

(* Runs thunk [i]; the pool mutex is held on entry and on exit. *)
let run_thunk pool i =
  let f = pool.thunks.(i) in
  Mutex.unlock pool.pmutex;
  let res =
    match f () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock pool.pmutex;
  (match res with
  | Some (e, bt) -> pool.failures <- (i, e, bt) :: pool.failures
  | None -> ());
  pool.remaining <- pool.remaining - 1;
  if pool.remaining = 0 then Condition.broadcast pool.finished

let scoped_worker pool =
  Mutex.lock pool.pmutex;
  let rec loop () =
    if pool.pclosed then Mutex.unlock pool.pmutex
    else if pool.next < Array.length pool.thunks then begin
      let i = pool.next in
      pool.next <- i + 1;
      run_thunk pool i;
      loop ()
    end
    else begin
      Condition.wait pool.work pool.pmutex;
      loop ()
    end
  in
  loop ()

let pool_size pool = pool.pworkers + 1

let run pool thunks =
  let len = Array.length thunks in
  if len > 0 then begin
    Mutex.lock pool.pmutex;
    if pool.pclosed then begin
      Mutex.unlock pool.pmutex;
      invalid_arg "Runner.run: pool used outside its scoped block"
    end;
    pool.thunks <- thunks;
    pool.next <- 0;
    pool.remaining <- len;
    pool.failures <- [];
    Condition.broadcast pool.work;
    (* The caller claims thunks like any worker, then waits the stragglers
       out. With zero spawned workers this runs every thunk here, in index
       order. *)
    let rec help () =
      if pool.next < len then begin
        let i = pool.next in
        pool.next <- i + 1;
        run_thunk pool i;
        help ()
      end
    in
    help ();
    while pool.remaining > 0 do
      Condition.wait pool.finished pool.pmutex
    done;
    let failures = pool.failures in
    pool.thunks <- [||];
    pool.failures <- [];
    Mutex.unlock pool.pmutex;
    (* Deterministic error choice: the smallest failing index wins.
       Indices are unique, so the sort never compares the exceptions. *)
    match List.sort (fun (i, _, _) (j, _, _) -> Int.compare i j) failures with
    | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
    | [] -> ()
  end

let scoped ?jobs f =
  let requested = capped_jobs (resolve_jobs jobs) in
  let pool =
    {
      pworkers = requested - 1;
      pmutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      thunks = [||];
      next = 0;
      remaining = 0;
      failures = [];
      pclosed = false;
    }
  in
  let domains =
    List.init (requested - 1) (fun _ ->
        Atomic.incr live;
        Domain.spawn (fun () -> scoped_worker pool))
  in
  let finish () =
    Mutex.lock pool.pmutex;
    pool.pclosed <- true;
    Condition.broadcast pool.work;
    Mutex.unlock pool.pmutex;
    List.iter
      (fun d ->
        Domain.join d;
        Atomic.decr live)
      domains
  in
  Fun.protect ~finally:finish (fun () -> f pool)

(* One [run] round over the items. Each result cell is written by one
   thunk and read only after the round's barrier, so it never races. *)
let map ?jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let results = Array.make n None in
  scoped ~jobs:(max 1 (min (resolve_jobs jobs) n)) (fun pool ->
      run pool (Array.init n (fun i () -> results.(i) <- Some (f arr.(i)))));
  Array.to_list (Array.map Option.get results)

let sweep ?jobs f points = map ?jobs (fun p -> (p, f p)) points
