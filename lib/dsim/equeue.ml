(* Struct-of-arrays event queue: the engine's events, flattened.

   A binary heap ordered by (time, seq), holding *encoded* events instead
   of boxed variant blocks: a kind tag plus four int operands and one
   optional boxed payload (the message or callback, which the engine
   cannot unbox without losing genericity).
   Times live in an off-heap Float64 [Bigarray], so the steady-state
   push/pop cycle allocates nothing at all: no event block, no float
   boxing, and the GC never scans or moves the time column.

   The heap is indirect: sift operations move (time, seq, slot) triples
   while the operand columns stay put in a free-listed slot pool, so a
   deep sift touches three arrays, not eight. Popping decodes the event
   into per-queue registers ([ev_kind] .. [ev_payload]) read by the
   dispatcher — returning a tuple or record would put an allocation back
   on the hot path. *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Provisional-rank encoding, shared with the engine's parallel dispatch
   windows (DESIGN §14): a seq at or above [prov_flag] is a provisional
   block rank whose low [cre_mask] bits index the creating lane's
   final-rank table. The queue counts live provisional entries so the
   barrier's batch remap can skip queues that hold none. *)
let prov_flag = 1 lsl 60

let cre_mask = (1 lsl 40) - 1

type t = {
  (* Heap columns, parallel, first [size] cells live. *)
  mutable times : ba;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  (* Slot pool: operand columns, free-listed through [ia]. *)
  mutable kinds : int array;
  mutable ia : int array;
  mutable ib : int array;
  mutable ic : int array;
  mutable id_ : int array;
  mutable payloads : Obj.t array;
  mutable free : int; (* head of the free list, -1 when exhausted *)
  mutable pool_len : int;
  mutable prov : int; (* live entries whose seq is provisional *)
  (* Registers holding the last popped event. *)
  mutable p_kind : int;
  mutable p_a : int;
  mutable p_b : int;
  mutable p_c : int;
  mutable p_d : int;
  mutable p_payload : Obj.t;
}

let dummy : Obj.t = Obj.repr ()

let ba_make cap : ba = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout cap

let create ?(capacity = 64) () =
  if capacity < 0 then invalid_arg "Equeue.create: negative capacity";
  let cap = max 1 capacity in
  {
    times = ba_make cap;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    size = 0;
    kinds = Array.make cap 0;
    ia = Array.make cap 0;
    ib = Array.make cap 0;
    ic = Array.make cap 0;
    id_ = Array.make cap 0;
    payloads = Array.make cap dummy;
    free = -1;
    pool_len = 0;
    prov = 0;
    p_kind = -1;
    p_a = 0;
    p_b = 0;
    p_c = 0;
    p_d = 0;
    p_payload = dummy;
  }

let size q = q.size

let is_empty q = q.size = 0

let grow_heap q =
  let cap = Array.length q.seqs in
  let cap' = 2 * cap in
  let times' = ba_make cap' in
  Bigarray.Array1.blit q.times (Bigarray.Array1.sub times' 0 cap);
  q.times <- times';
  let grow a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  q.seqs <- grow q.seqs;
  q.slots <- grow q.slots

let grow_pool q =
  let cap = Array.length q.kinds in
  let cap' = 2 * cap in
  let grow a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  q.kinds <- grow q.kinds;
  q.ia <- grow q.ia;
  q.ib <- grow q.ib;
  q.ic <- grow q.ic;
  q.id_ <- grow q.id_;
  let p' = Array.make cap' dummy in
  Array.blit q.payloads 0 p' 0 cap;
  q.payloads <- p'

let push q ~time ~seq ~kind ~a ~b ~c ~d payload =
  if not (Float.is_finite time) then invalid_arg "Equeue.push: non-finite time";
  if seq >= prov_flag then q.prov <- q.prov + 1;
  let slot =
    if q.free >= 0 then begin
      let s = q.free in
      q.free <- q.ia.(s);
      s
    end
    else begin
      if q.pool_len >= Array.length q.kinds then grow_pool q;
      let s = q.pool_len in
      q.pool_len <- s + 1;
      s
    end
  in
  q.kinds.(slot) <- kind;
  q.ia.(slot) <- a;
  q.ib.(slot) <- b;
  q.ic.(slot) <- c;
  q.id_.(slot) <- d;
  q.payloads.(slot) <- payload;
  if q.size >= Array.length q.seqs then grow_heap q;
  let times = q.times and seqs = q.seqs and slots = q.slots in
  let i = ref q.size in
  q.size <- q.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pt = Bigarray.Array1.unsafe_get times p in
    if pt > time || (pt = time && Array.unsafe_get seqs p > seq) then begin
      Bigarray.Array1.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else continue := false
  done;
  Bigarray.Array1.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let next_time q = if q.size = 0 then infinity else Bigarray.Array1.unsafe_get q.times 0

let top_seq q = if q.size = 0 then max_int else Array.unsafe_get q.seqs 0

let pop q =
  if q.size = 0 then invalid_arg "Equeue.pop: empty queue";
  if Array.unsafe_get q.seqs 0 >= prov_flag then q.prov <- q.prov - 1;
  let slot = q.slots.(0) in
  q.p_kind <- q.kinds.(slot);
  q.p_a <- q.ia.(slot);
  q.p_b <- q.ib.(slot);
  q.p_c <- q.ic.(slot);
  q.p_d <- q.id_.(slot);
  q.p_payload <- q.payloads.(slot);
  q.payloads.(slot) <- dummy;
  q.ia.(slot) <- q.free;
  q.free <- slot;
  q.size <- q.size - 1;
  let n = q.size in
  if n > 0 then begin
    let times = q.times and seqs = q.seqs and slots = q.slots in
    let time = Bigarray.Array1.unsafe_get times n in
    let seq = Array.unsafe_get seqs n in
    let sl = Array.unsafe_get slots n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let lt = Bigarray.Array1.unsafe_get times l
            and rt = Bigarray.Array1.unsafe_get times r in
            if rt < lt || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          end
          else l
        in
        let ct = Bigarray.Array1.unsafe_get times c in
        if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
          Bigarray.Array1.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Bigarray.Array1.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i sl
  end

(* Rewriting seq values in place is safe exactly when the rewrite
   preserves the pairwise order of the live seqs: the heap shape encodes
   only comparisons, so an order-preserving rewrite leaves every
   parent/child relation valid. The engine's barrier re-ranking satisfies
   this — a lane's provisional ranks resolve to final ranks in creation
   order, and every final rank a window assigns exceeds every rank the
   queue already held (DESIGN §14). The provisional count makes the
   common case — a queue that took no window creations — one load. *)
let remap_batch q ~finals =
  if q.prov > 0 then begin
    let seqs = q.seqs in
    let left = ref q.prov in
    let i = ref 0 in
    while !left > 0 do
      let s = Array.unsafe_get seqs !i in
      if s >= prov_flag then begin
        Array.unsafe_set seqs !i (Array.unsafe_get finals (s land cre_mask));
        decr left
      end;
      incr i
    done;
    q.prov <- 0
  end

let release q = q.p_payload <- dummy

let ev_kind q = q.p_kind

let ev_a q = q.p_a

let ev_b q = q.p_b

let ev_c q = q.p_c

let ev_d q = q.p_d

let ev_payload q = q.p_payload

(* Allocated footprint in words, for memory-growth checks: heap columns
   (seqs/slots + the off-heap time column counted at 1 word/cell) plus the
   pool columns. *)
let footprint_words q =
  let heap_cap = Array.length q.seqs in
  let pool_cap = Array.length q.kinds in
  (3 * heap_cap) + (6 * pool_cap)
