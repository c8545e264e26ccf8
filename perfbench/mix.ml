(* The five feasibility mechanisms the closed loops mix, each pinned to the
   setting whose plan selects it. Each sits in its own (topology, auth)
   class, which is how the traced run splits protocol compute. *)

module Core = Bsm_core
module Topology = Bsm_topology.Topology

type mechanism =
  | Phase_king  (** BB pipeline over general-adversary phase king (Thm 2) *)
  | Dolev_strong  (** BB pipeline over Dolev–Strong (Thm 5) *)
  | Pi_bsm  (** Π_bSM over relay channels (Thms 6/8/9) *)
  | Majority_proxy  (** phase king + majority proxy for L (Thm 4, Lemma 6) *)
  | Signature_proxy  (** Dolev–Strong + signature proxy for L (Thm 7, Lemma 8) *)

let mechanisms = [ Phase_king; Dolev_strong; Pi_bsm; Majority_proxy; Signature_proxy ]

let setting mechanism ~k =
  let third = (k - 1) / 3 and half = (k - 1) / 2 in
  let make topology auth ~tl ~tr =
    Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr
  in
  match mechanism with
  | Phase_king ->
    make Topology.Fully_connected Core.Setting.Unauthenticated ~tl:third ~tr:k
  | Dolev_strong -> make Topology.Fully_connected Core.Setting.Authenticated ~tl:k ~tr:k
  | Pi_bsm -> make Topology.Bipartite Core.Setting.Authenticated ~tl:third ~tr:k
  | Majority_proxy ->
    make Topology.One_sided Core.Setting.Unauthenticated ~tl:0 ~tr:half
  | Signature_proxy ->
    make Topology.One_sided Core.Setting.Authenticated ~tl:third ~tr:(k - 1)

(* The majority proxy runs the unauthenticated phase king under a proxy
   layer; at k = 8 one run costs ~0.5 s, 25x the mix's mean op, and would
   take most of every run's time, so the mixes stop it at k = 6. *)
let sizes mechanism ks =
  if mechanism = Majority_proxy then List.filter (fun k -> k <= 6) ks else ks

let class_of (s : Core.Setting.t) =
  Topology.to_string s.Core.Setting.topology ^ "." ^ Core.Setting.auth_to_string s.auth

let classes = List.map (fun m -> class_of (setting m ~k:4)) mechanisms
