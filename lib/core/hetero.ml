module Engine = Dsim.Engine

type link_bound = int -> int -> float

let uniform_bounds params _ _ = params.Params.delay_bound

let of_alist ~default pairs =
  let table = Hashtbl.create 16 in
  List.iter
    (fun ((u, v), b) -> Hashtbl.replace table (Dsim.Dyngraph.normalize u v) b)
    pairs;
  fun u v ->
    match Hashtbl.find_opt table (Dsim.Dyngraph.normalize u v) with
    | Some b -> b
    | None -> default

let delta_t_e p ~t_e = t_e +. (p.Params.delta_h /. (1. -. p.Params.rho))

let timeout_e p ~t_e = (1. +. p.Params.rho) *. delta_t_e p ~t_e

let tau_e p ~t_e =
  ((1. +. p.Params.rho) /. (1. -. p.Params.rho) *. delta_t_e p ~t_e)
  +. t_e +. p.Params.discovery_bound

let b0_e p ~t_e = p.Params.b0 *. tau_e p ~t_e /. Params.tau p

let b_e p ~t_e age =
  let unit = (1. +. p.Params.rho) *. tau_e p ~t_e in
  let b0 = b0_e p ~t_e in
  Float.max b0
    ((5. *. Params.global_skew_bound p) +. unit +. b0 -. (b0 *. age /. unit))

let stable_local_skew_e p ~t_e = b0_e p ~t_e +. (2. *. p.Params.rho *. Params.w p)

let check_bound p t_e =
  if t_e <= 0. || t_e > p.Params.delay_bound +. 1e-12 then
    invalid_arg
      (Printf.sprintf "Hetero: link bound %g outside (0, T = %g]" t_e
         p.Params.delay_bound)

let node params ~link_bound ctx =
  let me = Engine.node_id ctx in
  let t_e peer =
    let b = link_bound me peer in
    check_bound params b;
    b
  in
  Node.create
    ~tolerance:(Node.Tol_fun (fun ~peer age -> b_e params ~t_e:(t_e peer) age))
    ~timeout:(Node.Timeout_fun (fun ~peer -> timeout_e params ~t_e:(t_e peer)))
    params ctx

let delay_policy prng params ~link_bound =
  Dsim.Delay.directed ~bound:params.Params.delay_bound (fun ~src ~dst ~now:_ ->
      let b = link_bound src dst in
      check_bound params b;
      Dsim.Prng.float prng b)
