type violation = { time : float; rule : string; detail : string }

type t = { violations : violation list; events_audited : int; probes : int }

let ok r = r.violations = []

(* Stable sort keeps same-time violations in pass order, so merging the
   conformance and guarantee passes is deterministic. *)
let merge a b =
  {
    violations =
      List.stable_sort
        (fun x y -> compare x.time y.time)
        (a.violations @ b.violations);
    events_audited = a.events_audited + b.events_audited;
    probes = a.probes + b.probes;
  }

let of_validity inv =
  {
    violations =
      List.map
        (fun v ->
          {
            time = v.Gcs.Invariant.time;
            rule = "validity-" ^ v.Gcs.Invariant.kind;
            detail = Printf.sprintf "node %d: %s" v.Gcs.Invariant.node v.Gcs.Invariant.detail;
          })
        (Gcs.Invariant.violations inv);
    events_audited = 0;
    probes = Gcs.Invariant.probes inv;
  }

let pp_violation fmt v =
  Format.fprintf fmt "t=%.9g %s: %s" v.time v.rule v.detail

let pp fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter (fun v -> Format.fprintf fmt "%a@," pp_violation v) r.violations;
  Format.fprintf fmt "%s: %d violations (%d trace events, %d probes)@]"
    (if ok r then "PASS" else "FAIL")
    (List.length r.violations) r.events_audited r.probes

let render r = Format.asprintf "%a" pp r
