open Eda_geom

type t = { id : int; source : Point.t; sinks : Point.t array }

let make ~id ~source ~sinks =
  if Array.length sinks = 0 then invalid_arg "Net.make: net needs a sink";
  { id; source; sinks }

let pins t = t.source :: Array.to_list t.sinks
let num_pins t = 1 + Array.length t.sinks
let bbox t = Rect.of_points (pins t)
let hpwl t = Rect.half_perimeter (bbox t)

let pp fmt t =
  Format.fprintf fmt "net%d src=%a sinks=[%a]" t.id Point.pp t.source
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ";")
       Point.pp)
    (Array.to_list t.sinks)
