type t = H | V

let equal a b = match (a, b) with H, H | V, V -> true | H, V | V, H -> false
let to_string = function H -> "H" | V -> "V"
let pp fmt d = Format.pp_print_string fmt (to_string d)
let all = [ H; V ]
