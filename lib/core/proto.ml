type message = { l : float; lmax : float }

type timer = Tick | Lost of int

let timer_label = function Tick -> 0 | Lost v -> v + 1

let timer_of_label = function
  | 0 -> Tick
  | l when l > 0 -> Lost (l - 1)
  | l -> invalid_arg (Printf.sprintf "Proto.timer_of_label: negative label %d" l)

let restart_registers ~corrupt ~at =
  match corrupt with
  | None -> (0., 0.)
  | Some prng ->
    let scale = Float.max 1. (2. *. at) in
    let l = Dsim.Prng.float prng scale in
    (l, l +. Dsim.Prng.float prng (0.5 *. scale))

type ctx = (message, timer) Dsim.Engine.ctx

type handlers = (message, timer) Dsim.Engine.handlers
