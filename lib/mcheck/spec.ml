type t = {
  n : int;
  delays : int;
  drift : string;
  horizon : float;
  depth : int;
  tie : bool;
  churn : bool;
  faults : Dsim.Fault.schedule;
  choices : int list;
}

let rate_chars = "snf"

let validate s =
  if s.n < 2 then Error "n must be >= 2"
  else if String.length s.drift <> s.n then
    Error
      (Printf.sprintf "drift=%s needs exactly one rate letter per node (n=%d)"
         s.drift s.n)
  else if String.exists (fun c -> not (String.contains rate_chars c)) s.drift
  then Error (Printf.sprintf "drift=%s: rate letters are s, n, f" s.drift)
  else if s.delays < 1 then Error "delays must be >= 1"
  else if not (Float.is_finite s.horizon && s.horizon > 0.) then
    Error "horizon must be positive and finite"
  else if s.depth < 0 then Error "depth must be >= 0"
  else if List.exists (fun c -> c < 0) s.choices then
    Error "choices must be non-negative"
  else
    Result.map_error
      (fun m -> "faults: " ^ m)
      (Dsim.Fault.validate ~n:s.n s.faults)

let make ?(delays = 3) ?drift ?(horizon = 4.) ?(depth = 12) ?(tie = true)
    ?(churn = false) ?(faults = []) ?(choices = []) ~n () =
  let drift =
    match drift with
    | Some d -> d
    (* Default grid: alternate slow and fast clocks — the adversary's
       classic worst case, and never all-identical rates. *)
    | None -> String.init n (fun i -> if i land 1 = 0 then 's' else 'f')
  in
  let s = { n; delays; drift; horizon; depth; tie; churn; faults; choices } in
  match validate s with Ok () -> s | Error m -> invalid_arg ("Mcheck.Spec: " ^ m)

let choices_token = function
  | [] -> "-"
  | cs -> String.concat "." (List.map string_of_int cs)

let to_spec s =
  Printf.sprintf "n=%d delays=%d drift=%s horizon=%s depth=%d tie=%d churn=%d%s choices=%s"
    s.n s.delays s.drift
    (Dsim.Fault.exact_float s.horizon)
    s.depth
    (if s.tie then 1 else 0)
    (if s.churn then 1 else 0)
    (match s.faults with [] -> "" | f -> " faults=" ^ Dsim.Fault.to_spec f)
    (choices_token s.choices)

let of_spec spec =
  let ( let* ) = Result.bind in
  let module F = Audit.Scenario.Fields in
  let* fields =
    F.parse
      ~keys:[ "n"; "delays"; "drift"; "horizon"; "depth"; "tie"; "churn"; "faults"; "choices" ]
      spec
  in
  let* n = F.int fields "n" in
  let* delays = F.int fields "delays" in
  let* drift = F.get fields "drift" in
  let* horizon = F.horizon fields in
  let* depth = F.int fields "depth" in
  let* tie = F.bool fields "tie" in
  let* churn = F.bool fields "churn" in
  let* faults = F.faults fields in
  let* choices_s = F.get fields "choices" in
  let* choices =
    if choices_s = "-" then Ok []
    else
      let parts = String.split_on_char '.' choices_s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
          match int_of_string_opt p with
          | Some c when c >= 0 -> go (c :: acc) rest
          | _ -> Error (Printf.sprintf "choices token %s is not a choice index" p))
      in
      go [] parts
  in
  let s = { n; delays; drift; horizon; depth; tie; churn; faults; choices } in
  let* () = validate s in
  Ok s
