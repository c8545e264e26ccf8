type t =
  | Left
  | Right

let opposite = function
  | Left -> Right
  | Right -> Left

let equal a b =
  match a, b with
  | Left, Left | Right, Right -> true
  | Left, Right | Right, Left -> false

let to_int = function
  | Left -> 0
  | Right -> 1

let of_int = function
  | 0 -> Left
  | 1 -> Right
  | n -> invalid_arg (Printf.sprintf "Side.of_int %d" n)

let compare a b = Int.compare (to_int a) (to_int b)

let to_string = function
  | Left -> "L"
  | Right -> "R"

let all = [ Left; Right ]
