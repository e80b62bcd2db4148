type message = { l : float; lmax : float }

type timer = Tick | Lost of int

let timer_label = function Tick -> 0 | Lost v -> v + 1

type ctx = (message, timer) Dsim.Engine.ctx

type handlers = (message, timer) Dsim.Engine.handlers
