module Engine = Dsim.Engine

type tolerance =
  | Tol_default
  | Tol_const of float
  | Tol_fun of (peer:int -> float -> float)

type timeout = Timeout_default | Timeout_fun of (peer:int -> float)

(* Lowered tolerance. [Tol_default] becomes the closed linear form of
   {!Params.b} — [max floor (icpt -. slope *. age)] — and [Tol_const b]
   the same form with [floor = icpt = b] and [slope = 0.], which is [b]
   exactly at every finite age. Both run over floats kept in [regs], so
   the per-peer term in [adjust_clock] is pure unboxed arithmetic; a
   closure-field call there boxes the float argument and result on every
   Γ member of every event. Only the closure form needs a block. *)
type tol = T_linear | T_fun of (peer:int -> float -> float)

(* Every float register of the node in one all-float record, so each
   field lives unboxed and a store allocates nothing (a mutable float
   field in a mixed record would box every store). [L] and [Lmax] are
   kept as (value, anchor) with [get at = value +. (at -. anchor)];
   [acc] is AdjustClock's running minimum;
   the rest are constants of the lowered tolerance. *)
type regs = {
  mutable l : float;
  mutable l_at : float;
  mutable lmax : float;
  mutable lmax_at : float;
  mutable acc : float;
  b_floor : float;
  b_icpt : float;
  b_slope : float;
}

(* Peer state lives in two columns sorted by peer id — one slot per peer
   currently in Υ or Γ, flat instead of a Hashtbl of boxed cells, so the
   per-event [AdjustClock] minimum is a cache-linear loop and membership
   updates are a binary search plus a blit. [peers.(i)] packs the id
   with the two membership bits below it; [pf] holds, at stride 3, C^v
   (the hardware clock when v last entered Γ) and the estimate [L^v_u]
   as (value, anchor). Two blocks per node, not one per field. *)
type t = {
  ctx : Proto.ctx;
  params : Params.t;
  tolerance : tol;
  timeout : float;
      (* [ΔT'] unless [timeout_fun] is set. Kept boxed, outside [regs]:
         every receipt passes it to [Engine.set_timer], and a float read
         from an all-float record would be boxed afresh for that call. *)
  timeout_fun : (peer:int -> float) option;
  mutable peers : int array; (* id lsl 2 lor Γ bit lor Υ bit *)
  mutable pf : float array; (* C^v, L^v value, L^v anchor per slot *)
  mutable p_len : int;
  r : regs;
  mutable discrete_jumps : int;
  mutable messages_sent : int;
}

(* v ∈ Γ: heard from within subjective ΔT'. *)
let gamma_bit = 2

(* v ∈ Υ: edge believed present. *)
let upsilon_bit = 1

let[@inline] peer_of p = p lsr 2

let create ?(tolerance = Tol_default) ?(timeout = Timeout_default) params ctx =
  let tolerance, b_floor, b_icpt, b_slope =
    match tolerance with
    | Tol_const b -> (T_linear, b, b, 0.)
    | Tol_fun f -> (T_fun f, 0., 0., 0.)
    | Tol_default ->
      (* Params.b's linear form (Section 5):
         B(dt) = max(b0, 5G + unit + b0 - b0 * dt / unit). *)
      let unit = (1. +. params.Params.rho) *. Params.tau params in
      ( T_linear,
        params.Params.b0,
        (5. *. Params.global_skew_bound params) +. unit +. params.Params.b0,
        params.Params.b0 /. unit )
  in
  let timeout_fun, timeout =
    match timeout with
    | Timeout_fun f -> (Some f, 0.)
    | Timeout_default -> (None, Params.delta_t' params)
  in
  {
    ctx;
    params;
    tolerance;
    timeout;
    timeout_fun;
    peers = [||];
    pf = [||];
    p_len = 0;
    r =
      {
        l = 0.;
        l_at = 0.;
        lmax = 0.;
        lmax_at = 0.;
        acc = 0.;
        b_floor;
        b_icpt;
        b_slope;
      };
    discrete_jumps = 0;
    messages_sent = 0;
  }

let[@inline always] hardware_clock t = Engine.hardware_clock t.ctx

let params_of t = t.params

let logical_clock t = t.r.l +. (hardware_clock t -. t.r.l_at)

let max_estimate t = t.r.lmax +. (hardware_clock t -. t.r.lmax_at)

(* Slot management ---------------------------------------------------- *)

(* Index of peer [v], or [lnot] of its insertion point when absent. *)
let find t v =
  let lo = ref 0 and hi = ref t.p_len in
  let peers = t.peers in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if peer_of peers.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < t.p_len && peer_of peers.(!lo) = v then !lo else lnot !lo

let[@inline] has t i bit = t.peers.(i) land bit <> 0

let[@inline] set_bit t i bit = t.peers.(i) <- t.peers.(i) lor bit

let[@inline] clear_bit t i bit = t.peers.(i) <- t.peers.(i) land lnot bit

let grow t =
  let cap = max 2 (2 * Array.length t.peers) in
  let peers = Array.make cap 0 and pf = Array.make (3 * cap) 0. in
  Array.blit t.peers 0 peers 0 t.p_len;
  Array.blit t.pf 0 pf 0 (3 * t.p_len);
  t.peers <- peers;
  t.pf <- pf

(* Insert a fresh (non-Γ, non-Υ) slot for [v] at position [at]. *)
let insert t ~at v =
  if t.p_len >= Array.length t.peers then grow t;
  let tail = t.p_len - at in
  Array.blit t.peers at t.peers (at + 1) tail;
  Array.blit t.pf (3 * at) t.pf (3 * (at + 1)) (3 * tail);
  t.peers.(at) <- v lsl 2;
  Array.fill t.pf (3 * at) 3 0.;
  t.p_len <- t.p_len + 1

(* Drop slot [i] once the peer is in neither Γ nor Υ. *)
let drop_if_empty t i =
  if t.peers.(i) land (gamma_bit lor upsilon_bit) = 0 then begin
    let tail = t.p_len - i - 1 in
    Array.blit t.peers (i + 1) t.peers i tail;
    Array.blit t.pf (3 * (i + 1)) t.pf (3 * i) (3 * tail);
    t.p_len <- t.p_len - 1
  end

(* Algorithm 2 -------------------------------------------------------- *)

(* Current tolerance [B^v_u] for slot [i] at hardware time [h]. Cold
   callers only (introspection); the hot loop in [adjust_clock] matches
   once outside its iteration instead. *)
let tol_at t i h =
  let r = t.r in
  match t.tolerance with
  | T_linear ->
    let b = r.b_icpt -. (r.b_slope *. (h -. t.pf.(3 * i))) in
    if b < r.b_floor then r.b_floor else b
  | T_fun f -> f ~peer:(peer_of t.peers.(i)) (h -. t.pf.(3 * i))

(* Procedure AdjustClock:
   L <- max{L, min{Lmax, min_{v in Gamma}(L^v + B(H - C^v))}}.
   The match on the tolerance is hoisted out of the Γ loop: the linear
   form then runs entirely on unboxed floats. *)
let adjust_clock t =
  let h = hardware_clock t in
  let r = t.r in
  let l = r.l +. (h -. r.l_at) in
  let lmax = r.lmax +. (h -. r.lmax_at) in
  let peers = t.peers and pf = t.pf in
  r.acc <- infinity;
  (match t.tolerance with
  | T_linear ->
    let floor = r.b_floor and icpt = r.b_icpt and slope = r.b_slope in
    for i = 0 to t.p_len - 1 do
      if peers.(i) land gamma_bit <> 0 then begin
        let j = 3 * i in
        let b = icpt -. (slope *. (h -. pf.(j))) in
        let b = if b < floor then floor else b in
        let cap = pf.(j + 1) +. (h -. pf.(j + 2)) +. b in
        if cap < r.acc then r.acc <- cap
      end
    done
  | T_fun f ->
    for i = 0 to t.p_len - 1 do
      if peers.(i) land gamma_bit <> 0 then begin
        let j = 3 * i in
        let cap = pf.(j + 1) +. (h -. pf.(j + 2)) +. f ~peer:(peer_of peers.(i)) (h -. pf.(j)) in
        if cap < r.acc then r.acc <- cap
      end
    done);
  let target = if lmax < r.acc then lmax else r.acc in
  if target > l then begin
    t.discrete_jumps <- t.discrete_jumps + 1;
    r.l <- target;
    r.l_at <- h
  end

let current_update t =
  let h = hardware_clock t in
  let r = t.r in
  { Proto.l = r.l +. (h -. r.l_at); lmax = r.lmax +. (h -. r.lmax_at) }

let send_update t v msg =
  t.messages_sent <- t.messages_sent + 1;
  Engine.send t.ctx ~dst:v msg

let on_init t () = Engine.set_timer t.ctx ~after:t.params.Params.delta_h Proto.Tick

let on_discover_add t v =
  send_update t v (current_update t);
  (let i = find t v in
   let i =
     if i >= 0 then i
     else begin
       insert t ~at:(lnot i) v;
       lnot i
     end
   in
   set_bit t i upsilon_bit);
  adjust_clock t

let on_discover_remove t v =
  (* The lost-timer watches for silence on a live link; once the removal
     is discovered, v has already left Γ, so letting it fire would only
     produce a stale-timer event and a spurious AdjustClock. Cancel it,
     mirroring the re-arm in [on_receive]. *)
  Engine.cancel_timer t.ctx (Proto.Lost v);
  (let i = find t v in
   if i >= 0 then begin
     clear_bit t i (gamma_bit lor upsilon_bit);
     drop_if_empty t i
   end);
  adjust_clock t

(* The receipt re-arms lost(v) in place: [set_timer] on an armed label
   supersedes the pending entry, exactly as a cancel before it would. *)
let on_receive t v { Proto.l = l_v; lmax = lmax_v } =
  let h = hardware_clock t in
  let i = find t v in
  let i =
    if i >= 0 then i
    else begin
      let at = lnot i in
      insert t ~at v;
      at
    end
  in
  let j = 3 * i in
  (* Line 20: the estimate is refreshed on every receipt; C^v only when
     v (re-)enters Gamma (lines 17-19, cf. Lemma 6.10). *)
  if not (has t i gamma_bit) then t.pf.(j) <- h;
  t.pf.(j + 1) <- l_v;
  t.pf.(j + 2) <- h;
  (* A message can only arrive on an edge the environment delivered on, so
     v belongs in Upsilon even if the discover(add) was suppressed as
     transient. *)
  set_bit t i (gamma_bit lor upsilon_bit);
  let r = t.r in
  if lmax_v > r.lmax +. (h -. r.lmax_at) then begin
    r.lmax <- lmax_v;
    r.lmax_at <- h
  end;
  adjust_clock t;
  let after = match t.timeout_fun with None -> t.timeout | Some f -> f ~peer:v in
  Engine.set_timer t.ctx ~after (Proto.Lost v)

let on_timer t = function
  | Proto.Tick ->
    (* One handler, one [h] and no state change between sends: every
       member of Υ gets the same immutable update. *)
    let msg = current_update t in
    for i = 0 to t.p_len - 1 do
      if has t i upsilon_bit then send_update t (peer_of t.peers.(i)) msg
    done;
    adjust_clock t;
    Engine.set_timer t.ctx ~after:t.params.Params.delta_h Proto.Tick
  | Proto.Lost v ->
    (let i = find t v in
     if i >= 0 then begin
       clear_bit t i gamma_bit;
       drop_if_empty t i
     end);
    adjust_clock t

(* Restart entry point (fault injection): the crash lost every piece of
   volatile state, so empty the peer table and restart the clock
   registers from {!Proto.restart_registers}. Without corruption that is
   the initial state; validity re-converges through received Lmax
   values. *)
let restart t ~corrupt =
  t.p_len <- 0;
  let h = hardware_clock t in
  let l, lmax = Proto.restart_registers ~corrupt ~at:h in
  let r = t.r in
  r.l <- l;
  r.l_at <- h;
  r.lmax <- lmax;
  r.lmax_at <- h;
  (* Timers were purged by the engine; re-arm the periodic tick exactly
     as on_init does. Lost timers re-arm as messages arrive. *)
  Engine.set_timer t.ctx ~after:t.params.Params.delta_h Proto.Tick

let handlers t =
  Engine.on_restart t.ctx (restart t);
  {
    Engine.on_init = on_init t;
    on_discover_add = on_discover_add t;
    on_discover_remove = on_discover_remove t;
    on_receive = on_receive t;
    on_timer = on_timer t;
  }

(* Introspection ------------------------------------------------------ *)

let members t bit =
  let out = ref [] in
  for i = t.p_len - 1 downto 0 do
    if has t i bit then out := peer_of t.peers.(i) :: !out
  done;
  !out

let gamma t = members t gamma_bit

let upsilon t = members t upsilon_bit

let in_gamma t v =
  let i = find t v in
  if i >= 0 && has t i gamma_bit then i else -1

let peer_estimate t v =
  let i = in_gamma t v in
  if i < 0 then None
  else Some (t.pf.((3 * i) + 1) +. (hardware_clock t -. t.pf.((3 * i) + 2)))

let peer_age t v =
  let i = in_gamma t v in
  if i < 0 then None else Some (hardware_clock t -. t.pf.(3 * i))

let peer_tolerance t v =
  let i = in_gamma t v in
  if i < 0 then None else Some (tol_at t i (hardware_clock t))

let is_blocked t =
  let h = hardware_clock t in
  let l = t.r.l +. (h -. t.r.l_at) in
  if t.r.lmax +. (h -. t.r.lmax_at) <= l then false
  else begin
    let blocked = ref false in
    for i = 0 to t.p_len - 1 do
      if
        has t i gamma_bit
        && l -. (t.pf.((3 * i) + 1) +. (h -. t.pf.((3 * i) + 2))) > tol_at t i h
      then blocked := true
    done;
    !blocked
  end

let discrete_jumps t = t.discrete_jumps

let messages_sent t = t.messages_sent
