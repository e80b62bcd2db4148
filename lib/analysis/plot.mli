(** Minimal ASCII plotting for time series — enough to eyeball a skew
    trace in a terminal without leaving the harness. *)

val render :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  (string * Series.t) list ->
  string
(** [render series] draws the named series (up to 4; each gets its own
    glyph) on a shared canvas with axis annotations. Default 72x16.
    Returns a multi-line string. Empty input yields an empty plot frame. *)

val sparkline : ?width:int -> Series.t -> string
(** One-line unicode sparkline (resampled to [width], default 60). *)
