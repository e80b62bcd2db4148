module Trace = Dsim.Trace

type config = {
  delay_bound : float;
  discovery_bound : float;
  delta_t : float;
  min_lost_gap : float;
  horizon : float;
  check_gaps : bool;
  faults : Dsim.Fault.schedule;
}

let of_params params ~horizon ?(check_gaps = true) ?(faults = []) () =
  {
    delay_bound = params.Gcs.Params.delay_bound;
    discovery_bound = params.Gcs.Params.discovery_bound;
    delta_t = Gcs.Params.delta_t params;
    (* A lost(v) timer is armed for subjective ΔT' at every receipt from
       v; a clock runs at most (1+ρ) fast, so the fire can come no
       earlier than ΔT'/(1+ρ) real time after the arming delivery. *)
    min_lost_gap = Gcs.Params.delta_t' params /. (1. +. params.Gcs.Params.rho);
    horizon;
    check_gaps;
    faults;
  }

(* Did the sender suffer a crash or restart inside (t0, t1]? Any silence
   or cadence break on its outgoing links over that span is the fault's
   doing, not the engine's. (A Deliver implies the sender kept one
   incarnation from send to delivery, so an outage *before* t0 cannot
   explain a gap that only opens after it.) *)
let sender_outage cfg ~src t0 t1 =
  Dsim.Fault.crashed_in cfg.faults ~node:src t0 t1
  || Dsim.Fault.restarted_in cfg.faults ~node:src t0 t1

let slack = Gcs.Metrics.slack

(* One outstanding discovery obligation: change [o_epoch] at [o_time]
   must reach both endpoints by [o_deadline] unless superseded by a
   newer change to the same edge first. *)
type obligation = {
  o_epoch : int;
  o_time : float;
  o_deadline : float;
  o_add : bool;
  mutable o_lo_seen : bool;  (* smaller endpoint notified *)
  mutable o_hi_seen : bool;
}

type edge_state = {
  e_lo : int;
  e_hi : int;
  mutable present : bool;
  mutable epoch : int;
  mutable obligations : obligation list;  (* newest first *)
}

type pending_send = { s_time : float; s_epoch : int }

(* Directed-link replay state: the FIFO send queue plus the receipt-gap
   anchor (last delivery time and the epoch it happened on). *)
type link_state = {
  sends : pending_send Queue.t;
  mutable last_receipt : float;
  mutable last_receipt_epoch : int;  (* -1: no anchor *)
  mutable dup_credit : int;
      (* outstanding Fault_duplicate copies: each licenses exactly one
         deliver/drop on this link with no matching send *)
}

type state = {
  cfg : config;
  edges : (int * int, edge_state) Hashtbl.t;
  links : (int * int, link_state) Hashtbl.t;
  mutable violations : Report.violation list;  (* newest first *)
  mutable audited : int;
}

let violation st ~time rule detail = st.violations <- { Report.time; rule; detail } :: st.violations

let violationf st ~time rule fmt = Printf.ksprintf (violation st ~time rule) fmt

let edge_state st u v =
  let k = Dsim.Dyngraph.normalize u v in
  match Hashtbl.find_opt st.edges k with
  | Some e -> e
  | None ->
    let e = { e_lo = fst k; e_hi = snd k; present = false; epoch = 0; obligations = [] } in
    Hashtbl.add st.edges k e;
    e

let link_state st src dst =
  match Hashtbl.find_opt st.links (src, dst) with
  | Some l -> l
  | None ->
    let l =
      { sends = Queue.create (); last_receipt = 0.; last_receipt_epoch = -1; dup_credit = 0 }
    in
    Hashtbl.add st.links (src, dst) l;
    l

(* Remove and return the oldest queued send of the given epoch, keeping
   older sends of other (dead) epochs in place: they are awaiting their
   own Drop_in_flight. *)
let take_send link epoch =
  let keep = Queue.create () in
  let found = ref None in
  Queue.iter
    (fun s ->
      if !found = None && s.s_epoch = epoch then found := Some s else Queue.add s keep)
    link.sends;
  Queue.clear link.sends;
  Queue.transfer keep link.sends;
  !found

(* A take_send miss is licensed when the link holds a duplication credit:
   the engine traced a Fault_duplicate at send time, so exactly one extra
   delivery (or drop, if the copy outlives its edge or receiver) will
   arrive with its send already consumed by the original. *)
let consume_dup link =
  if link.dup_credit > 0 then begin
    link.dup_credit <- link.dup_credit - 1;
    true
  end
  else false

let on_edge_change st ~time ~add u v =
  let e = edge_state st u v in
  if add && e.present then
    violationf st ~time "edge-double-add" "{%d,%d} added while present" u v;
  if (not add) && not e.present then
    violationf st ~time "edge-double-remove" "{%d,%d} removed while absent" u v;
  e.present <- add;
  e.epoch <- e.epoch + 1;
  (* A newer change supersedes every outstanding obligation: the old
     change became transient and "may or may not" be discovered. *)
  e.obligations <-
    [
      {
        o_epoch = e.epoch;
        o_time = time;
        o_deadline = time +. st.cfg.discovery_bound;
        o_add = add;
        o_lo_seen = false;
        o_hi_seen = false;
      };
    ]

let on_discover st ~time ~add node peer epoch =
  let e = edge_state st node peer in
  if epoch < 0 then begin
    (* Absence (re-)notification from a failed send: legal only while
       the edge is really absent. *)
    if add then
      violationf st ~time "absence-notify-add" "%d:{%d,%d} absence notified as add" node
        node peer
    else if e.present then
      violationf st ~time "absence-notify-present" "%d told {%d,%d} absent but it exists"
        node node peer
  end
  else begin
    match List.find_opt (fun o -> o.o_epoch = epoch) e.obligations with
    | None ->
      violationf st ~time "unsolicited-discovery"
        "%d discovered {%d,%d} epoch %d with no outstanding change" node node peer epoch
    | Some o ->
      if o.o_add <> add then
        violationf st ~time "discovery-kind-mismatch"
          "{%d,%d} epoch %d changed to %s but discovered as %s" node peer epoch
          (if o.o_add then "present" else "absent")
          (if add then "present" else "absent");
      if
        time > o.o_deadline +. slack time
        (* A restart re-discovery replays the current neighborhood with
           the lag measured from the restart, not from the change. *)
        && not (Dsim.Fault.restarted_in st.cfg.faults ~node o.o_time time)
      then
        violationf st ~time "late-discovery"
          "%d discovered {%d,%d} epoch %d at %.9g, deadline %.9g" node node peer epoch time
          o.o_deadline;
      if node = e.e_lo then o.o_lo_seen <- true else o.o_hi_seen <- true
  end

let on_send st ~time src dst epoch =
  let e = edge_state st src dst in
  if epoch < 0 then begin
    if e.present then
      violationf st ~time "send-misclassified-absent" "%d->%d dropped but {%d,%d} exists"
        src dst src dst
  end
  else begin
    if not e.present then
      violationf st ~time "send-on-absent-edge" "%d->%d sent but {%d,%d} is absent" src dst
        src dst
    else if e.epoch <> epoch then
      violationf st ~time "send-epoch-mismatch" "%d->%d sent on epoch %d, edge at %d" src
        dst epoch e.epoch;
    Queue.add { s_time = time; s_epoch = epoch } (link_state st src dst).sends
  end

let on_deliver st ~time src dst epoch =
  let e = edge_state st src dst in
  if not e.present then
    violationf st ~time "deliver-on-absent-edge" "%d->%d delivered but {%d,%d} is absent"
      src dst src dst
  else if e.epoch <> epoch then
    violationf st ~time "deliver-across-epochs"
      "%d->%d delivered on epoch %d but edge is at epoch %d (in-flight messages of a \
       changed edge must be dropped)"
      src dst epoch e.epoch;
  let link = link_state st src dst in
  (match take_send link epoch with
  | None ->
    if not (consume_dup link) then
      violationf st ~time "deliver-without-send"
        "%d->%d delivery on epoch %d has no outstanding send (out-of-order or phantom)" src
        dst epoch
  | Some s ->
    let delay = time -. s.s_time in
    if delay > st.cfg.delay_bound +. slack time then
      violationf st ~time "delay-exceeds-T" "%d->%d delay %.9g > T=%.9g" src dst delay
        st.cfg.delay_bound;
    if delay < -.slack time then
      violationf st ~time "deliver-before-send" "%d->%d delivered %.9g before its send" src
        dst (-.delay));
  if st.cfg.check_gaps && link.last_receipt_epoch = epoch then begin
    let gap = time -. link.last_receipt in
    if
      gap > st.cfg.delta_t +. slack time
      && not (sender_outage st.cfg ~src link.last_receipt time)
    then
      violationf st ~time "receipt-gap-exceeds-dT"
        "%d->%d silent for %.9g on an unchanged link, bound dT=%.9g" src dst gap
        st.cfg.delta_t
  end;
  (* The anchor also dates the arming of dst's lost(src) timer, so keep
     it current even when gap checking is off. *)
  link.last_receipt <- time;
  link.last_receipt_epoch <- epoch

(* [label] is {!Gcs.Proto.timer_label}'s encoding (-1 means the trace
   predates timer labels). Every receipt from v re-arms lost(v) for
   subjective ΔT', so a live fire earlier than [min_lost_gap] after the
   last delivery v -> node means the engine fired it early or dropped a
   re-arm. *)
let on_timer_fire st ~time node label =
  if label >= 0 then
    match Gcs.Proto.timer_of_label label with
    | Tick -> ()
    | Lost v -> (
      match Hashtbl.find_opt st.links (v, node) with
      | Some link when link.last_receipt_epoch >= 0 ->
        let gap = time -. link.last_receipt in
        (* gap = 0 is the same-instant race: a delivery processed at the
           fire's own timestamp updated the anchor, but the fire was armed
           by the receipt *before* it — not premature. Only a strictly
           positive yet too-small gap convicts the engine. *)
        if gap > slack time && gap < st.cfg.min_lost_gap -. slack time then
          violationf st ~time "premature-lost-timer"
            "%d's lost(%d) fired %.9g after the last receipt, minimum gap %.9g" node v
            gap st.cfg.min_lost_gap
      | _ -> ())

let on_drop_in_flight st ~time src dst epoch =
  let e = edge_state st src dst in
  if e.present && e.epoch = epoch then
    violationf st ~time "drop-live-message"
      "%d->%d epoch-%d message dropped though the edge never changed" src dst epoch;
  let link = link_state st src dst in
  (match take_send link epoch with
  | Some _ -> ()
  | None ->
    if not (consume_dup link) then
      violationf st ~time "drop-without-send"
        "%d->%d in-flight drop with no outstanding send" src dst)

let on_drop_lossy st ~time src dst epoch =
  let link = link_state st src dst in
  (match take_send link epoch with
  | Some _ -> ()
  | None ->
    if not (consume_dup link) then
      violationf st ~time "drop-without-send" "%d->%d lossy drop with no outstanding send"
        src dst);
  (* Loss breaks the receipt cadence through no fault of the engine:
     reset the gap anchor rather than report a phantom silence. *)
  link.last_receipt_epoch <- -1

let finish st =
  let horizon = st.cfg.horizon in
  (* Undelivered messages whose delivery window closed before the end of
     the run, on an edge that never changed under them. *)
  Hashtbl.iter
    (fun (src, dst) link ->
      let e = edge_state st src dst in
      Queue.iter
        (fun s ->
          if
            e.present && e.epoch = s.s_epoch
            && s.s_time +. st.cfg.delay_bound < horizon -. slack horizon
          then
            violationf st ~time:horizon "undelivered-within-T"
              "%d->%d send at %.9g neither delivered nor dropped by %.9g" src dst s.s_time
              (s.s_time +. st.cfg.delay_bound))
        link.sends;
      if st.cfg.check_gaps && link.last_receipt_epoch >= 0 then begin
        let e = edge_state st src dst in
        if e.present && e.epoch = link.last_receipt_epoch then begin
          let gap = horizon -. link.last_receipt in
          if
            gap > st.cfg.delta_t +. slack horizon
            && not (sender_outage st.cfg ~src link.last_receipt horizon)
          then
            violationf st ~time:horizon "receipt-gap-exceeds-dT"
              "%d->%d silent for the last %.9g of the run, bound dT=%.9g" src dst gap
              st.cfg.delta_t
        end
      end)
    st.links;
  (* Discovery obligations whose deadline passed unmet. An endpoint that
     was dead at any point of the obligation window is excused: crashed
     nodes observe nothing, and what they missed is replayed (for edges
     still present) by the restart re-discovery instead. *)
  Hashtbl.iter
    (fun _ e ->
      List.iter
        (fun o ->
          let excused node =
            Dsim.Fault.dead_during st.cfg.faults ~node o.o_time o.o_deadline
          in
          let lo_missing = (not o.o_lo_seen) && not (excused e.e_lo) in
          let hi_missing = (not o.o_hi_seen) && not (excused e.e_hi) in
          if o.o_deadline < horizon -. slack horizon && (lo_missing || hi_missing) then
            violationf st ~time:o.o_deadline "missed-discovery"
              "{%d,%d} change at %.9g (epoch %d) undiscovered by %s by deadline %.9g"
              e.e_lo e.e_hi o.o_time o.o_epoch
              (match (lo_missing, hi_missing) with
              | true, true -> "both endpoints"
              | true, false -> Printf.sprintf "node %d" e.e_lo
              | false, true -> Printf.sprintf "node %d" e.e_hi
              | false, false -> assert false)
              o.o_deadline)
        e.obligations)
    st.edges

(* ---- Incremental API: the explorer feeds entries one at a time as the
   engine produces them; [audit] below is the offline replay built on the
   same three calls, so the two can never drift apart. ---- *)

let create cfg =
  {
    cfg;
    edges = Hashtbl.create 64;
    links = Hashtbl.create 64;
    violations = [];
    audited = 0;
  }

let step st { Trace.time; kind; a; b; c } =
  st.audited <- st.audited + 1;
  match kind with
  | Trace.Send -> on_send st ~time a b c
  | Trace.Deliver -> on_deliver st ~time a b c
  | Trace.Drop_no_edge ->
    let e = edge_state st a b in
    if e.present then
      violationf st ~time "drop-no-edge-but-present" "%d->%d dropped as edgeless but {%d,%d} exists" a b a b
  | Trace.Drop_in_flight -> on_drop_in_flight st ~time a b c
  | Trace.Drop_lossy -> on_drop_lossy st ~time a b c
  | Trace.Edge_add -> on_edge_change st ~time ~add:true a b
  | Trace.Edge_remove -> on_edge_change st ~time ~add:false a b
  | Trace.Discover_add -> on_discover st ~time ~add:true a b c
  | Trace.Discover_remove -> on_discover st ~time ~add:false a b c
  | Trace.Timer_fire -> on_timer_fire st ~time a b
  | Trace.Fault_duplicate ->
    (* Recorded at send time: licenses one extra sendless deliver or
       drop on this directed link, whenever the copy lands. *)
    let link = link_state st a b in
    link.dup_credit <- link.dup_credit + 1
  | Trace.Fault_crash | Trace.Fault_restart | Trace.Fault_corrupt
  | Trace.Fault_byzantine_msg ->
    (* Informational: excusals key off the schedule in the config. *)
    ()
  | Trace.Delay_clamped ->
    (* A clamped adversary draw is the policy's bug, not the engine's;
       the explorer treats it as fatal separately (it voids coverage). *)
    ()
  | Trace.Discover_stale | Trace.Timer_stale -> ()

let violation_count st = List.length st.violations

let finish st =
  finish st;
  {
    Report.violations = List.rev st.violations;
    events_audited = st.audited;
    probes = 0;
  }

let audit cfg entries =
  let st = create cfg in
  List.iter (step st) entries;
  finish st
