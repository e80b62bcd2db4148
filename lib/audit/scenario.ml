type t = {
  n : int;
  topo : int;
  drift : int;
  delay : int;
  algo : int;
  churn : bool;
  seed : int;
  horizon : float;
  faults : Dsim.Fault.schedule;
}

let topo_names = [| "path"; "ring"; "tree"; "er" |]
let drift_names = [| "perfect"; "split"; "alternating"; "walk" |]
let delay_names = [| "maximal"; "zero"; "uniform" |]
let algo_names = [| "gradient"; "flat"; "max" |]

let to_spec s =
  Printf.sprintf "n=%d topo=%s drift=%s delay=%s algo=%s churn=%d seed=%d horizon=%s%s"
    s.n topo_names.(s.topo) drift_names.(s.drift) delay_names.(s.delay)
    algo_names.(s.algo)
    (if s.churn then 1 else 0)
    s.seed
    (Dsim.Fault.exact_float s.horizon)
    (* The fault token is omitted when empty so pre-fault specs round-trip
       unchanged (and old specs keep parsing). *)
    (match s.faults with [] -> "" | f -> " faults=" ^ Dsim.Fault.to_spec f)

let index_of names value =
  let rec go i =
    if i >= Array.length names then None else if names.(i) = value then Some i else go (i + 1)
  in
  go 0

(* The [key=value] tokenizer both replay grammars share (Mcheck.Spec
   too): a typo'd or repeated key must fail loudly, not replay another
   scenario. *)
module Fields = struct
  type t = (string * string) list

  let parse ~keys spec =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | tok :: rest -> (
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "token %s is not key=value" tok)
        | Some i ->
          let key = String.sub tok 0 i in
          let v = String.sub tok (i + 1) (String.length tok - i - 1) in
          if not (List.mem key keys) then
            Error
              (Printf.sprintf "unknown key %s= (expected one of: %s)" key
                 (String.concat ", " keys))
          else if List.mem_assoc key acc then
            Error (Printf.sprintf "duplicate key %s=" key)
          else if v = "" then Error (Printf.sprintf "%s= has no value" key)
          else go ((key, v) :: acc) rest)
    in
    go [] (String.split_on_char ' ' (String.trim spec) |> List.filter (( <> ) ""))

  let find fields key = List.assoc_opt key fields

  let get fields key =
    match find fields key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "spec is missing %s=" key)

  let int fields key =
    Result.bind (get fields key) (fun v ->
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "%s=%s is not an integer" key v))

  let bool fields key =
    Result.bind (get fields key) (function
      | "0" -> Ok false
      | "1" -> Ok true
      | v -> Error (Printf.sprintf "%s=%s is not 0 or 1" key v))

  let horizon fields =
    Result.bind (get fields "horizon") (fun v ->
        match float_of_string_opt v with
        | Some h when Float.is_finite h && h > 0. -> Ok h
        | _ -> Error (Printf.sprintf "horizon=%s is not a positive finite number" v))

  let faults fields =
    match find fields "faults" with
    | None -> Ok []
    | Some v -> Dsim.Fault.of_spec v
end

let of_spec spec =
  let ( let* ) = Result.bind in
  let* fields =
    Fields.parse
      ~keys:[ "n"; "topo"; "drift"; "delay"; "algo"; "churn"; "seed"; "horizon"; "faults" ]
      spec
  in
  let named_field key names =
    let* v = Fields.get fields key in
    match index_of names v with
    | Some i -> Ok i
    | None ->
      Error
        (Printf.sprintf "%s=%s (expected one of: %s)" key v
           (String.concat ", " (Array.to_list names)))
  in
  let* n = Fields.int fields "n" in
  let* topo = named_field "topo" topo_names in
  let* drift = named_field "drift" drift_names in
  let* delay = named_field "delay" delay_names in
  let* algo = named_field "algo" algo_names in
  let* churn = Fields.bool fields "churn" in
  let* seed = Fields.int fields "seed" in
  let* horizon = Fields.horizon fields in
  let* faults = Fields.faults fields in
  if n < 2 then Error "n must be >= 2"
  else if topo_names.(topo) = "ring" && n < 3 then Error "topo=ring needs n >= 3"
  else
    let* () = Dsim.Fault.validate ~n faults in
    Ok { n; topo; drift; delay; algo; churn; seed; horizon; faults }

let generate ?(faults = false) prng =
  let s =
    {
      n = Dsim.Prng.int_in prng 4 14;
      topo = Dsim.Prng.int prng 4;
      drift = Dsim.Prng.int prng 4;
      delay = Dsim.Prng.int prng 3;
      algo = Dsim.Prng.int prng 3;
      churn = Dsim.Prng.bool prng;
      seed = Dsim.Prng.int prng 1_000_000;
      horizon = 120.;
      faults = [];
    }
  in
  (* Fault draws come last so non-fault campaigns generate the exact same
     scenarios as before the fault dimension existed. *)
  if faults then { s with faults = Dsim.Fault.generate prng ~n:s.n ~horizon:s.horizon }
  else s

let build_topology s =
  match s.topo with
  | 0 -> Topology.Static.path s.n
  | 1 -> Topology.Static.ring s.n
  | 2 -> Topology.Static.binary_tree s.n
  | _ -> Topology.Static.erdos_renyi (Dsim.Prng.of_int s.seed) ~n:s.n ~p:0.5

let execute ?log_limit s =
  let params = Gcs.Params.make ~n:s.n () in
  let edges = build_topology s in
  let drift =
    match s.drift with
    | 0 -> Gcs.Drift.Perfect
    | 1 -> Gcs.Drift.Split_extremes
    | 2 -> Gcs.Drift.Alternating 17.
    | _ -> Gcs.Drift.Random_walk 9.
  in
  let bound = params.Gcs.Params.delay_bound in
  let delay =
    match s.delay with
    | 0 -> Dsim.Delay.maximal ~bound
    | 1 -> Dsim.Delay.zero ~bound
    | _ -> Dsim.Delay.uniform (Dsim.Prng.of_int (s.seed + 1)) ~bound
  in
  let algo =
    match s.algo with
    | 0 -> Gcs.Sim.Gradient
    | 1 -> Gcs.Sim.Flat_gradient
    | _ -> Gcs.Sim.Max_only
  in
  let clocks = Gcs.Drift.assign params ~horizon:s.horizon ~seed:s.seed drift in
  let conformance =
    Conformance.create (Conformance.of_params params ~horizon:s.horizon ~faults:s.faults ())
  in
  let trace = Dsim.Trace.create ?log_limit ~on_entry:(Conformance.step conformance) () in
  let cfg =
    Gcs.Sim.config ~algo ~params ~clocks ~delay ~trace ~initial_edges:edges
      ~faults:s.faults ~fault_seed:(s.seed + 4) ()
  in
  let sim = Gcs.Sim.create cfg in
  let engine = Gcs.Sim.engine sim in
  let view = Gcs.Sim.view sim in
  let guarantees =
    Guarantees.create engine ~params ~check_envelope:(s.algo = 0) ~faults:s.faults
  in
  let invariants = Gcs.Invariant.checker ~n:s.n ~params ~faults:s.faults () in
  Gcs.Metrics.every engine view ~every:1. ~until:s.horizon (fun snap ->
      Guarantees.observe guarantees snap;
      Gcs.Invariant.observe invariants snap);
  if s.churn then
    Topology.Churn.schedule engine
      (Topology.Churn.random_churn
         (Dsim.Prng.of_int (s.seed + 2))
         ~n:s.n ~base:edges ~rate:0.3 ~horizon:s.horizon);
  Gcs.Sim.run_until sim s.horizon;
  ( Report.merge
      (Conformance.finish conformance)
      (Report.merge (Guarantees.report guarantees) (Report.of_validity invariants)),
    trace )

let run s = fst (execute s)

let record s = Dsim.Trace.entries (snd (execute ~log_limit:max_int s))
