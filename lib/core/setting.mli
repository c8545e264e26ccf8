(** A problem setting: the five parameters the paper's characterization is
    stated over. *)

type auth =
  | Unauthenticated
  | Authenticated

type t = {
  k : int;  (** parties per side *)
  topology : Bsm_topology.Topology.t;
  auth : auth;
  t_left : int;  (** corruption budget in L *)
  t_right : int;  (** corruption budget in R *)
}

(** Validates [k >= 1] and [0 <= t_side <= k]. *)
val make :
  k:int ->
  topology:Bsm_topology.Topology.t ->
  auth:auth ->
  t_left:int ->
  t_right:int ->
  (t, string) result

val make_exn :
  k:int ->
  topology:Bsm_topology.Topology.t ->
  auth:auth ->
  t_left:int ->
  t_right:int ->
  t

(** The one wire format of a setting, used by serve requests and chaos
    repros: [k], the topology's tag (fully-connected 0, one-sided 1,
    bipartite 2), the auth tag (unauthenticated 0, authenticated 1),
    [t_left] and [t_right], each a uint. Decoding goes through {!make},
    so a decoded setting is valid and an invalid one raises
    [Wire.Malformed]. *)
val codec : t Bsm_wire.Wire.t

(** The paper's adversary structure [Z*] for this setting. *)
val structure : t -> Bsm_broadcast.Adversary_structure.t

(** [within_budget t set] — [set] has at most [t_left] members in L and
    [t_right] in R: [possibly_corrupt (structure t) set]. *)
val within_budget : t -> Bsm_prelude.Party_set.t -> bool

val auth_to_string : auth -> string
val pp : Format.formatter -> t -> unit
