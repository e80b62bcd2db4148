(** The experiment catalog: every reproduced result of the paper, indexed
    by the ids used in DESIGN.md and EXPERIMENTS.md. *)

type entry = {
  id : string;
  title : string;
  run : quick:bool -> Common.result;
}

val all : entry list

val find : string -> entry option
(** Case-insensitive lookup by id ("e1" .. "e8"). *)
