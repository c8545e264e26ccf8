module Topology = Bsm_topology.Topology
module Wire = Bsm_wire.Wire

type auth =
  | Unauthenticated
  | Authenticated

type t = {
  k : int;
  topology : Topology.t;
  auth : auth;
  t_left : int;
  t_right : int;
}

let make ~k ~topology ~auth ~t_left ~t_right =
  if k < 1 then Error "k must be at least 1"
  else if t_left < 0 || t_left > k then Error "t_left must be in [0, k]"
  else if t_right < 0 || t_right > k then Error "t_right must be in [0, k]"
  else Ok { k; topology; auth; t_left; t_right }

let make_exn ~k ~topology ~auth ~t_left ~t_right =
  match make ~k ~topology ~auth ~t_left ~t_right with
  | Ok t -> t
  | Error msg -> invalid_arg ("Setting.make_exn: " ^ msg)

let codec =
  Wire.map
    ~inject:(fun ((k, topology, auth), (t_left, t_right)) ->
      match make ~k ~topology ~auth ~t_left ~t_right with
      | Ok t -> t
      | Error e -> raise (Wire.Malformed ("invalid setting: " ^ e)))
    ~project:(fun t -> (t.k, t.topology, t.auth), (t.t_left, t.t_right))
    (Wire.pair
       (Wire.triple Wire.uint
          (Wire.enum ~name:"topology"
             [ Topology.Fully_connected; Topology.One_sided; Topology.Bipartite ])
          (Wire.enum ~name:"auth" [ Unauthenticated; Authenticated ]))
       (Wire.pair Wire.uint Wire.uint))

let structure t =
  Bsm_broadcast.Adversary_structure.Two_sided { t_left = t.t_left; t_right = t.t_right }

let within_budget t set =
  Bsm_broadcast.Adversary_structure.possibly_corrupt (structure t) set

let auth_to_string = function
  | Unauthenticated -> "unauthenticated"
  | Authenticated -> "authenticated"

let pp ppf t =
  Format.fprintf ppf "%a/%s k=%d tL=%d tR=%d" Topology.pp t.topology
    (auth_to_string t.auth) t.k t.t_left t.t_right
