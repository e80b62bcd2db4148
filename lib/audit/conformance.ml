module Trace = Dsim.Trace

type config = {
  nodes : int;
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
    nodes = params.Gcs.Params.n;
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

(* All-float records are stored flat, so writing their fields boxes
   nothing; the mixed records below keep their floats in one of these. *)
type change = { mutable at : float; mutable deadline : float }

type anchor = { mutable last_receipt : float }

(* Undirected edge state, shared by the edge's two directed links. Every
   change opens a discovery obligation and supersedes the previous one
   (the old change became transient and "may or may not" be discovered),
   so the edge holds at most one, inline: it exists once [epoch > 0], is
   for change [epoch] at [change.at], due by [change.deadline], of kind
   [present]; [lo_seen]/[hi_seen] record the endpoints notified of it. *)
type edge = {
  mutable present : bool;
  mutable epoch : int;
  mutable lo_seen : bool;
  mutable hi_seen : bool;
  change : change;
}

(* Directed-link replay state. The pending sends are one ring of
   (time, epoch) columns in send order: [len] entries from slot [head],
   capacity a power of two. [receipt_epoch] is the epoch of the last
   delivery ([-1]: no anchor), at [anchor.last_receipt]. [dup_credit]
   counts outstanding Fault_duplicate copies: each licenses exactly one
   deliver/drop on this link with no matching send. *)
type link = {
  edge : edge;
  mutable times : float array;
  mutable epochs : int array;
  mutable head : int;
  mutable len : int;
  mutable receipt_epoch : int;
  mutable dup_credit : int;
  anchor : anchor;
}

(* Node u's links, sorted by peer: [peers.(u)] and [links.(u)] are
   parallel, with [degree.(u)] live entries. Both directions of an edge
   are created together, so one lookup yields the link and its edge. *)
type state = {
  cfg : config;
  peers : int array array;
  links : link array array;
  degree : int array;
  mutable violations : Report.violation list;  (* newest first *)
  mutable audited : int;
}

let violation st ~time rule detail = st.violations <- { Report.time; rule; detail } :: st.violations

let violationf st ~time rule fmt = Printf.ksprintf (violation st ~time rule) fmt

(* Index of [k] in the first [len] slots of sorted [keys], or [lnot] of
   its insertion point. *)
let bfind (keys : int array) len k =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  if !lo < len && keys.(!lo) = k then !lo else lnot !lo

let check_node st kind id =
  if id < 0 || id >= st.cfg.nodes then
    invalid_arg
      (Printf.sprintf "Conformance.step: %s record names node %d outside [0, %d)"
         (Trace.kind_to_string kind) id st.cfg.nodes)

let new_link edge =
  {
    edge;
    times = [||];
    epochs = [||];
    head = 0;
    len = 0;
    receipt_epoch = -1;
    dup_credit = 0;
    anchor = { last_receipt = 0. };
  }

let insert_link st u ~at v l =
  let d = st.degree.(u) in
  if d = Array.length st.peers.(u) then begin
    let cap = max 2 (2 * d) in
    let ps = Array.make cap 0 and ls = Array.make cap l in
    Array.blit st.peers.(u) 0 ps 0 d;
    Array.blit st.links.(u) 0 ls 0 d;
    st.peers.(u) <- ps;
    st.links.(u) <- ls
  end;
  let ps = st.peers.(u) and ls = st.links.(u) in
  Array.blit ps at ps (at + 1) (d - at);
  Array.blit ls at ls (at + 1) (d - at);
  ps.(at) <- v;
  ls.(at) <- l;
  st.degree.(u) <- d + 1

(* The link [src -> dst], created with its reverse and their edge on
   first sight. [kind] names the record in the out-of-range error. *)
let link st kind src dst =
  check_node st kind src;
  check_node st kind dst;
  let i = bfind st.peers.(src) st.degree.(src) dst in
  if i >= 0 then st.links.(src).(i)
  else begin
    let edge =
      {
        present = false;
        epoch = 0;
        lo_seen = false;
        hi_seen = false;
        change = { at = 0.; deadline = 0. };
      }
    in
    let l = new_link edge in
    insert_link st src ~at:(lnot i) dst l;
    if dst <> src then begin
      let j = bfind st.peers.(dst) st.degree.(dst) src in
      insert_link st dst ~at:(lnot j) src (new_link edge)
    end;
    l
  end

let push_send l time epoch =
  let cap = Array.length l.times in
  if l.len = cap then begin
    let cap' = max 4 (2 * cap) in
    let ts = Array.make cap' 0. and es = Array.make cap' 0 in
    for k = 0 to l.len - 1 do
      let s = (l.head + k) land (cap - 1) in
      ts.(k) <- l.times.(s);
      es.(k) <- l.epochs.(s)
    done;
    l.times <- ts;
    l.epochs <- es;
    l.head <- 0
  end;
  let s = (l.head + l.len) land (Array.length l.times - 1) in
  l.times.(s) <- time;
  l.epochs.(s) <- epoch;
  l.len <- l.len + 1

(* Ring slot of the oldest pending send of [epoch], or -1. Older sends
   of other (dead) epochs stay in place: they await their own
   Drop_in_flight. *)
let find_send l epoch =
  let mask = Array.length l.times - 1 in
  let k = ref 0 and found = ref (-1) in
  while !found < 0 && !k < l.len do
    let s = (l.head + !k) land mask in
    if l.epochs.(s) = epoch then found := s else incr k
  done;
  !found

(* Remove the send in slot [s]: the sends ahead of it move up one slot,
   so the head's pop is O(1) and the rest keep their order. *)
let remove_send l s =
  let mask = Array.length l.times - 1 in
  let s = ref s in
  while !s <> l.head do
    let prev = (!s - 1) land mask in
    l.times.(!s) <- l.times.(prev);
    l.epochs.(!s) <- l.epochs.(prev);
    s := prev
  done;
  l.head <- (l.head + 1) land mask;
  l.len <- l.len - 1

(* A find_send miss is licensed when the link holds a duplication
   credit: the engine traced a Fault_duplicate at send time, so exactly
   one extra delivery (or drop, if the copy outlives its edge or
   receiver) will arrive with its send already consumed by the original. *)
let consume_dup l =
  if l.dup_credit > 0 then begin
    l.dup_credit <- l.dup_credit - 1;
    true
  end
  else false

let on_edge_change st ~time ~add kind u v =
  let e = (link st kind u v).edge in
  if add && e.present then
    violationf st ~time "edge-double-add" "{%d,%d} added while present" u v;
  if (not add) && not e.present then
    violationf st ~time "edge-double-remove" "{%d,%d} removed while absent" u v;
  e.present <- add;
  e.epoch <- e.epoch + 1;
  e.change.at <- time;
  e.change.deadline <- time +. st.cfg.discovery_bound;
  e.lo_seen <- false;
  e.hi_seen <- false

let on_discover st ~time ~add kind node peer epoch =
  let e = (link st kind node peer).edge in
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
  else if e.epoch = 0 || epoch <> e.epoch then
    violationf st ~time "unsolicited-discovery"
      "%d discovered {%d,%d} epoch %d with no outstanding change" node node peer epoch
  else begin
    if e.present <> add then
      violationf st ~time "discovery-kind-mismatch"
        "{%d,%d} epoch %d changed to %s but discovered as %s" node peer epoch
        (if e.present then "present" else "absent")
        (if add then "present" else "absent");
    if
      time > e.change.deadline +. slack time
      (* A restart re-discovery replays the current neighborhood with
         the lag measured from the restart, not from the change. *)
      && not (Dsim.Fault.restarted_in st.cfg.faults ~node e.change.at time)
    then
      violationf st ~time "late-discovery"
        "%d discovered {%d,%d} epoch %d at %.9g, deadline %.9g" node node peer epoch time
        e.change.deadline;
    if node <= peer then e.lo_seen <- true else e.hi_seen <- true
  end

let on_send st ~time src dst epoch =
  let l = link st Trace.Send src dst in
  let e = l.edge in
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
    push_send l time epoch
  end

let on_deliver st ~time src dst epoch =
  let l = link st Trace.Deliver src dst in
  let e = l.edge in
  if not e.present then
    violationf st ~time "deliver-on-absent-edge" "%d->%d delivered but {%d,%d} is absent"
      src dst src dst
  else if e.epoch <> epoch then
    violationf st ~time "deliver-across-epochs"
      "%d->%d delivered on epoch %d but edge is at epoch %d (in-flight messages of a \
       changed edge must be dropped)"
      src dst epoch e.epoch;
  let s = find_send l epoch in
  if s < 0 then begin
    if not (consume_dup l) then
      violationf st ~time "deliver-without-send"
        "%d->%d delivery on epoch %d has no outstanding send (out-of-order or phantom)" src
        dst epoch
  end
  else begin
    let delay = time -. l.times.(s) in
    remove_send l s;
    if delay > st.cfg.delay_bound +. slack time then
      violationf st ~time "delay-exceeds-T" "%d->%d delay %.9g > T=%.9g" src dst delay
        st.cfg.delay_bound;
    if delay < -.slack time then
      violationf st ~time "deliver-before-send" "%d->%d delivered %.9g before its send" src
        dst (-.delay)
  end;
  if st.cfg.check_gaps && l.receipt_epoch = epoch then begin
    let gap = time -. l.anchor.last_receipt in
    if
      gap > st.cfg.delta_t +. slack time
      && not (sender_outage st.cfg ~src l.anchor.last_receipt time)
    then
      violationf st ~time "receipt-gap-exceeds-dT"
        "%d->%d silent for %.9g on an unchanged link, bound dT=%.9g" src dst gap
        st.cfg.delta_t
  end;
  (* The anchor also dates the arming of dst's lost(src) timer, so keep
     it current even when gap checking is off. *)
  l.anchor.last_receipt <- time;
  l.receipt_epoch <- epoch

(* [label] is {!Gcs.Proto.timer_label}'s encoding (-1 means the trace
   predates timer labels). Every receipt from v re-arms lost(v) for
   subjective ΔT', so a live fire earlier than [min_lost_gap] after the
   last delivery v -> node means the engine fired it early or dropped a
   re-arm. *)
let on_timer_fire st ~time node label =
  if label >= 0 then
    match Gcs.Proto.timer_of_label label with
    | Tick -> ()
    | Lost v ->
      check_node st Trace.Timer_fire v;
      check_node st Trace.Timer_fire node;
      let i = bfind st.peers.(v) st.degree.(v) node in
      if i >= 0 && st.links.(v).(i).receipt_epoch >= 0 then begin
        let gap = time -. st.links.(v).(i).anchor.last_receipt in
        (* gap = 0 is the same-instant race: a delivery processed at the
           fire's own timestamp updated the anchor, but the fire was armed
           by the receipt *before* it — not premature. Only a strictly
           positive yet too-small gap convicts the engine. *)
        if gap > slack time && gap < st.cfg.min_lost_gap -. slack time then
          violationf st ~time "premature-lost-timer"
            "%d's lost(%d) fired %.9g after the last receipt, minimum gap %.9g" node v
            gap st.cfg.min_lost_gap
      end

let on_drop_in_flight st ~time src dst epoch =
  let l = link st Trace.Drop_in_flight src dst in
  let e = l.edge in
  if e.present && e.epoch = epoch then
    violationf st ~time "drop-live-message"
      "%d->%d epoch-%d message dropped though the edge never changed" src dst epoch;
  let s = find_send l epoch in
  if s >= 0 then remove_send l s
  else if not (consume_dup l) then
    violationf st ~time "drop-without-send"
      "%d->%d in-flight drop with no outstanding send" src dst

let on_drop_lossy st ~time src dst epoch =
  let l = link st Trace.Drop_lossy src dst in
  let s = find_send l epoch in
  if s >= 0 then remove_send l s
  else if not (consume_dup l) then
    violationf st ~time "drop-without-send" "%d->%d lossy drop with no outstanding send"
      src dst;
  (* Loss breaks the receipt cadence through no fault of the engine:
     reset the gap anchor rather than report a phantom silence. *)
  l.receipt_epoch <- -1

(* End-of-run checks, in a fixed order: every link in (src, dst) order
   (its undelivered sends oldest first, then its final receipt gap),
   then every edge in (lo, hi) order (its missed discovery). *)
let end_of_run st =
  let horizon = st.cfg.horizon in
  let n = st.cfg.nodes in
  for src = 0 to n - 1 do
    for i = 0 to st.degree.(src) - 1 do
      let dst = st.peers.(src).(i) and l = st.links.(src).(i) in
      let e = l.edge in
      (* Undelivered messages whose delivery window closed before the
         end of the run, on an edge that never changed under them. *)
      for k = 0 to l.len - 1 do
        let s = (l.head + k) land (Array.length l.times - 1) in
        let s_time = l.times.(s) in
        if
          e.present && e.epoch = l.epochs.(s)
          && s_time +. st.cfg.delay_bound < horizon -. slack horizon
        then
          violationf st ~time:horizon "undelivered-within-T"
            "%d->%d send at %.9g neither delivered nor dropped by %.9g" src dst s_time
            (s_time +. st.cfg.delay_bound)
      done;
      if
        st.cfg.check_gaps && l.receipt_epoch >= 0 && e.present
        && e.epoch = l.receipt_epoch
      then begin
        let gap = horizon -. l.anchor.last_receipt in
        if
          gap > st.cfg.delta_t +. slack horizon
          && not (sender_outage st.cfg ~src l.anchor.last_receipt horizon)
        then
          violationf st ~time:horizon "receipt-gap-exceeds-dT"
            "%d->%d silent for the last %.9g of the run, bound dT=%.9g" src dst gap
            st.cfg.delta_t
      end
    done
  done;
  (* Discovery obligations whose deadline passed unmet. An endpoint that
     was dead at any point of the obligation window is excused: crashed
     nodes observe nothing, and what they missed is replayed (for edges
     still present) by the restart re-discovery instead. *)
  for lo = 0 to n - 1 do
    for i = 0 to st.degree.(lo) - 1 do
      let hi = st.peers.(lo).(i) and e = st.links.(lo).(i).edge in
      if lo <= hi && e.epoch > 0 then begin
        let { at; deadline } = e.change in
        let excused node = Dsim.Fault.dead_during st.cfg.faults ~node at deadline in
        let lo_missing = (not e.lo_seen) && not (excused lo) in
        let hi_missing = (not e.hi_seen) && not (excused hi) in
        if deadline < horizon -. slack horizon && (lo_missing || hi_missing) then
          violationf st ~time:deadline "missed-discovery"
            "{%d,%d} change at %.9g (epoch %d) undiscovered by %s by deadline %.9g" lo hi
            at e.epoch
            (match (lo_missing, hi_missing) with
            | true, true -> "both endpoints"
            | true, false -> Printf.sprintf "node %d" lo
            | false, true -> Printf.sprintf "node %d" hi
            | false, false -> assert false)
            deadline
      end
    done
  done

(* ---- Incremental API: the explorer feeds entries one at a time as the
   engine produces them; [audit] below is the offline replay built on the
   same three calls, so the two can never drift apart. ---- *)

let create cfg =
  let n = cfg.nodes in
  {
    cfg;
    peers = Array.make n [||];
    links = Array.make n [||];
    degree = Array.make n 0;
    violations = [];
    audited = 0;
  }

let step st { Trace.time; kind; a; b; c } =
  st.audited <- st.audited + 1;
  match kind with
  | Trace.Send -> on_send st ~time a b c
  | Trace.Deliver -> on_deliver st ~time a b c
  | Trace.Drop_no_edge ->
    if (link st kind a b).edge.present then
      violationf st ~time "drop-no-edge-but-present" "%d->%d dropped as edgeless but {%d,%d} exists" a b a b
  | Trace.Drop_in_flight -> on_drop_in_flight st ~time a b c
  | Trace.Drop_lossy -> on_drop_lossy st ~time a b c
  | Trace.Edge_add -> on_edge_change st ~time ~add:true kind a b
  | Trace.Edge_remove -> on_edge_change st ~time ~add:false kind a b
  | Trace.Discover_add -> on_discover st ~time ~add:true kind a b c
  | Trace.Discover_remove -> on_discover st ~time ~add:false kind a b c
  | Trace.Timer_fire -> on_timer_fire st ~time a b
  | Trace.Fault_duplicate ->
    (* Recorded at send time: licenses one extra sendless deliver or
       drop on this directed link, whenever the copy lands. *)
    let l = link st kind a b in
    l.dup_credit <- l.dup_credit + 1
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
  end_of_run st;
  {
    Report.violations = List.rev st.violations;
    events_audited = st.audited;
    probes = 0;
  }

let audit cfg entries =
  let st = create cfg in
  List.iter (step st) entries;
  finish st
