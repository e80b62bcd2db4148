module Engine = Dsim.Engine

(* All-float record, so the field lives unboxed and the running minimum
   in [adjust_clock] can be updated without allocating (a [float ref] or
   a mutable float field in a mixed record would box every store). *)
type scratch = { mutable acc : float }

type tolerance =
  | Tol_default
  | Tol_const of float
  | Tol_fun of (peer:int -> float -> float)

type timeout = Timeout_default | Timeout_fun of (peer:int -> float)

(* Lowered tolerance. [Tol_default] becomes the closed linear form of
   {!Params.b} — [max floor (icpt -. slope *. age)] over precomputed
   floats — so the per-peer term in [adjust_clock] is pure unboxed
   arithmetic; a closure-field call there boxes the float argument and
   result on every Γ member of every event. The inline record is
   all-float, hence flat. *)
type tol =
  | T_const of float
  | T_linear of { floor : float; icpt : float; slope : float }
  | T_fun of (peer:int -> float -> float)

type tmo = Tm_const of float | Tm_fun of (peer:int -> float)

(* Peer state lives in parallel arrays sorted by peer id — one slot per
   peer currently in Υ or Γ, flat floats instead of a Hashtbl of boxed
   cells, so the per-event [AdjustClock] minimum is a cache-linear loop
   and membership updates are a binary search plus a blit. The estimate
   [L^v_u] is stored inline as (value, anchor) with
   [get at = value +. (at -. anchor)], exactly {!Estimate}'s arithmetic. *)
type t = {
  ctx : Proto.ctx;
  params : Params.t;
  tolerance : tol;
  timeout : tmo;
  mutable p_id : int array;
  mutable p_gamma : bool array; (* v ∈ Γ: heard from within subjective ΔT' *)
  mutable p_upsilon : bool array; (* v ∈ Υ: edge believed present *)
  mutable p_c : float array; (* C^v_u: hardware clock when v last entered Γ *)
  mutable p_val : float array; (* L^v_u estimate value ... *)
  mutable p_anchor : float array; (* ... anchored at this hardware time *)
  mutable p_len : int;
  scratch : scratch;
  l : Estimate.t;
  lmax : Estimate.t;
  mutable discrete_jumps : int;
  mutable messages_sent : int;
}

let create ?(tolerance = Tol_default) ?(timeout = Timeout_default) params ctx =
  let tolerance =
    match tolerance with
    | Tol_const b -> T_const b
    | Tol_fun f -> T_fun f
    | Tol_default ->
      (* Close over Params.b's linear form (Section 5):
         B(dt) = max(b0, 5G + unit + b0 - b0 * dt / unit). *)
      let unit = (1. +. params.Params.rho) *. Params.tau params in
      T_linear
        {
          floor = params.Params.b0;
          icpt = (5. *. Params.global_skew_bound params) +. unit +. params.Params.b0;
          slope = params.Params.b0 /. unit;
        }
  in
  let timeout =
    match timeout with
    | Timeout_fun f -> Tm_fun f
    | Timeout_default -> Tm_const (Params.delta_t' params)
  in
  {
    ctx;
    params;
    tolerance;
    timeout;
    p_id = [||];
    p_gamma = [||];
    p_upsilon = [||];
    p_c = [||];
    p_val = [||];
    p_anchor = [||];
    p_len = 0;
    scratch = { acc = 0. };
    l = Estimate.create ~value:0. ~anchor:0.;
    lmax = Estimate.create ~value:0. ~anchor:0.;
    discrete_jumps = 0;
    messages_sent = 0;
  }

let[@inline always] hardware_clock t = Engine.hardware_clock t.ctx

let id t = Engine.node_id t.ctx

let params_of t = t.params

let logical_clock t = Estimate.get t.l ~at:(hardware_clock t)

let max_estimate t = Estimate.get t.lmax ~at:(hardware_clock t)

(* Slot management ---------------------------------------------------- *)

(* Index of peer [v], or [lnot] of its insertion point when absent. *)
let find t v =
  let lo = ref 0 and hi = ref t.p_len in
  let ids = t.p_id in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ids.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < t.p_len && ids.(!lo) = v then !lo else lnot !lo

let grow t =
  let cap = max 4 (2 * Array.length t.p_id) in
  let ids = Array.make cap 0
  and ga = Array.make cap false
  and up = Array.make cap false
  and c = Array.make cap 0.
  and vl = Array.make cap 0.
  and an = Array.make cap 0. in
  Array.blit t.p_id 0 ids 0 t.p_len;
  Array.blit t.p_gamma 0 ga 0 t.p_len;
  Array.blit t.p_upsilon 0 up 0 t.p_len;
  Array.blit t.p_c 0 c 0 t.p_len;
  Array.blit t.p_val 0 vl 0 t.p_len;
  Array.blit t.p_anchor 0 an 0 t.p_len;
  t.p_id <- ids;
  t.p_gamma <- ga;
  t.p_upsilon <- up;
  t.p_c <- c;
  t.p_val <- vl;
  t.p_anchor <- an

(* Insert a fresh (non-Γ, non-Υ) slot for [v] at position [at]. *)
let insert t ~at v =
  if t.p_len >= Array.length t.p_id then grow t;
  let tail = t.p_len - at in
  Array.blit t.p_id at t.p_id (at + 1) tail;
  Array.blit t.p_gamma at t.p_gamma (at + 1) tail;
  Array.blit t.p_upsilon at t.p_upsilon (at + 1) tail;
  Array.blit t.p_c at t.p_c (at + 1) tail;
  Array.blit t.p_val at t.p_val (at + 1) tail;
  Array.blit t.p_anchor at t.p_anchor (at + 1) tail;
  t.p_id.(at) <- v;
  t.p_gamma.(at) <- false;
  t.p_upsilon.(at) <- false;
  t.p_c.(at) <- 0.;
  t.p_val.(at) <- 0.;
  t.p_anchor.(at) <- 0.;
  t.p_len <- t.p_len + 1

(* Drop slot [i] once the peer is in neither Γ nor Υ. *)
let drop_if_empty t i =
  if (not t.p_gamma.(i)) && not t.p_upsilon.(i) then begin
    let tail = t.p_len - i - 1 in
    Array.blit t.p_id (i + 1) t.p_id i tail;
    Array.blit t.p_gamma (i + 1) t.p_gamma i tail;
    Array.blit t.p_upsilon (i + 1) t.p_upsilon i tail;
    Array.blit t.p_c (i + 1) t.p_c i tail;
    Array.blit t.p_val (i + 1) t.p_val i tail;
    Array.blit t.p_anchor (i + 1) t.p_anchor i tail;
    t.p_len <- t.p_len - 1
  end

(* Algorithm 2 -------------------------------------------------------- *)

(* Current tolerance [B^v_u] for slot [i] at hardware time [h]. Cold
   callers only (introspection); the hot loop in [adjust_clock] matches
   once outside its iteration instead. *)
let tol_at t i h =
  match t.tolerance with
  | T_const b -> b
  | T_linear { floor; icpt; slope } ->
    let b = icpt -. (slope *. (h -. t.p_c.(i))) in
    if b < floor then floor else b
  | T_fun f -> f ~peer:t.p_id.(i) (h -. t.p_c.(i))

(* Procedure AdjustClock:
   L <- max{L, min{Lmax, min_{v in Gamma}(L^v + B(H - C^v))}}.
   The match on the tolerance is hoisted out of the Γ loop: the default
   and constant forms then run entirely on unboxed floats. *)
let adjust_clock t =
  let h = hardware_clock t in
  let l = Estimate.get t.l ~at:h in
  let lmax = Estimate.get t.lmax ~at:h in
  t.scratch.acc <- infinity;
  (match t.tolerance with
  | T_const b ->
    for i = 0 to t.p_len - 1 do
      if t.p_gamma.(i) then begin
        let cap = t.p_val.(i) +. (h -. t.p_anchor.(i)) +. b in
        if cap < t.scratch.acc then t.scratch.acc <- cap
      end
    done
  | T_linear { floor; icpt; slope } ->
    for i = 0 to t.p_len - 1 do
      if t.p_gamma.(i) then begin
        let b = icpt -. (slope *. (h -. t.p_c.(i))) in
        let b = if b < floor then floor else b in
        let cap = t.p_val.(i) +. (h -. t.p_anchor.(i)) +. b in
        if cap < t.scratch.acc then t.scratch.acc <- cap
      end
    done
  | T_fun f ->
    for i = 0 to t.p_len - 1 do
      if t.p_gamma.(i) then begin
        let cap =
          t.p_val.(i) +. (h -. t.p_anchor.(i))
          +. f ~peer:t.p_id.(i) (h -. t.p_c.(i))
        in
        if cap < t.scratch.acc then t.scratch.acc <- cap
      end
    done);
  let target = if lmax < t.scratch.acc then lmax else t.scratch.acc in
  if target > l then begin
    t.discrete_jumps <- t.discrete_jumps + 1;
    Estimate.set t.l ~at:h target
  end

let current_update t =
  let h = hardware_clock t in
  { Proto.l = Estimate.get t.l ~at:h; lmax = Estimate.get t.lmax ~at:h }

let send_update t v msg =
  t.messages_sent <- t.messages_sent + 1;
  Engine.send t.ctx ~dst:v msg

let on_init t () = Engine.set_timer t.ctx ~after:t.params.Params.delta_h Proto.Tick

let on_discover_add t v =
  send_update t v (current_update t);
  (let i = find t v in
   if i >= 0 then t.p_upsilon.(i) <- true
   else begin
     insert t ~at:(lnot i) v;
     t.p_upsilon.(lnot i) <- true
   end);
  adjust_clock t

let on_discover_remove t v =
  (* The lost-timer watches for silence on a live link; once the removal
     is discovered, v has already left Γ, so letting it fire would only
     produce a stale-timer event and a spurious AdjustClock. Cancel it,
     mirroring the re-arm in [on_receive]. *)
  Engine.cancel_timer t.ctx (Proto.Lost v);
  (let i = find t v in
   if i >= 0 then begin
     t.p_gamma.(i) <- false;
     t.p_upsilon.(i) <- false;
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
  if t.p_gamma.(i) then begin
    (* Line 20: the estimate is refreshed on every receipt; C^v only when
       v (re-)enters Gamma (lines 17-19, cf. Lemma 6.10). *)
    t.p_val.(i) <- l_v;
    t.p_anchor.(i) <- h
  end
  else begin
    t.p_gamma.(i) <- true;
    t.p_c.(i) <- h;
    t.p_val.(i) <- l_v;
    t.p_anchor.(i) <- h
  end;
  (* A message can only arrive on an edge the environment delivered on, so
     v belongs in Upsilon even if the discover(add) was suppressed as
     transient. *)
  t.p_upsilon.(i) <- true;
  ignore (Estimate.raise_to t.lmax ~at:h lmax_v);
  adjust_clock t;
  let after =
    match t.timeout with Tm_const d -> d | Tm_fun f -> f ~peer:v
  in
  Engine.set_timer t.ctx ~after (Proto.Lost v)

let on_timer t = function
  | Proto.Tick ->
    (* One handler, one [h] and no state change between sends: every
       member of Υ gets the same immutable update. *)
    let msg = current_update t in
    for i = 0 to t.p_len - 1 do
      if t.p_upsilon.(i) then send_update t t.p_id.(i) msg
    done;
    adjust_clock t;
    Engine.set_timer t.ctx ~after:t.params.Params.delta_h Proto.Tick
  | Proto.Lost v ->
    (let i = find t v in
     if i >= 0 then begin
       t.p_gamma.(i) <- false;
       drop_if_empty t i
     end);
    adjust_clock t

(* Restart entry point (fault injection): the crash lost every piece of
   volatile state, so empty the peer table and restart the clock
   registers. Without corruption the node resumes from the initial state
   (L = Lmax = 0 at the current hardware reading — validity re-converges
   through received Lmax values). With corruption, draw an arbitrary but
   type-correct state from the fault PRNG: the registers stay ordered
   (L <= Lmax) but their values are garbage scaled to the current
   hardware clock, which is exactly the transient-fault starting point of
   the self-stabilization question. *)
let restart t ~corrupt =
  t.p_len <- 0;
  let h = hardware_clock t in
  (match corrupt with
  | None ->
    Estimate.set t.l ~at:h 0.;
    Estimate.set t.lmax ~at:h 0.
  | Some prng ->
    let scale = Float.max 1. (2. *. h) in
    let l_val = Dsim.Prng.float prng scale in
    let lmax_val = l_val +. Dsim.Prng.float prng (0.5 *. scale) in
    Estimate.set t.l ~at:h l_val;
    Estimate.set t.lmax ~at:h lmax_val);
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

let members t which =
  let out = ref [] in
  for i = t.p_len - 1 downto 0 do
    if which.(i) then out := t.p_id.(i) :: !out
  done;
  !out

let gamma t = members t t.p_gamma

let upsilon t = members t t.p_upsilon

let in_gamma t v =
  let i = find t v in
  if i >= 0 && t.p_gamma.(i) then i else -1

let peer_estimate t v =
  let i = in_gamma t v in
  if i < 0 then None
  else Some (t.p_val.(i) +. (hardware_clock t -. t.p_anchor.(i)))

let peer_age t v =
  let i = in_gamma t v in
  if i < 0 then None else Some (hardware_clock t -. t.p_c.(i))

let peer_tolerance t v =
  let i = in_gamma t v in
  if i < 0 then None else Some (tol_at t i (hardware_clock t))

let is_blocked t =
  let h = hardware_clock t in
  let l = Estimate.get t.l ~at:h in
  if Estimate.get t.lmax ~at:h <= l then false
  else begin
    let blocked = ref false in
    for i = 0 to t.p_len - 1 do
      if
        t.p_gamma.(i)
        && l -. (t.p_val.(i) +. (h -. t.p_anchor.(i))) > tol_at t i h
      then blocked := true
    done;
    !blocked
  end

let discrete_jumps t = t.discrete_jumps

let messages_sent t = t.messages_sent
