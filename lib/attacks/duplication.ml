open Bsm_prelude
module Topology = Bsm_topology.Topology

(* Small system: a,b,c = L0,L1,L2; u,v,w = R0,R1,R2. *)
let a = Party_id.left 0
let b = Party_id.left 1
let c = Party_id.left 2
let u = Party_id.right 0
let v = Party_id.right 1

(* The twist: channels between {a, u} and {c, w} cross the two copies;
   every other pair of labels stays within its copy. *)
let crossing x y =
  let in_group1 p = Party_id.index p = 0 (* a or u *) in
  let in_group2 p = Party_id.index p = 2 (* c or w *) in
  (in_group1 x && in_group2 y) || (in_group2 x && in_group1 y)

(* Inputs: c1 <-> v1 and a2 <-> v2 are mutual favorites; the rest are
   arbitrary (Lemma 5 fixes only those four). *)
let favorite label ~copy =
  match Party_id.to_string label, copy with
  | "L2", 1 -> v (* c1 -> v *)
  | "R1", 1 -> c (* v1 -> c *)
  | "L0", 2 -> v (* a2 -> v *)
  | "R1", 2 -> a (* v2 -> a *)
  | _ -> if Side.equal (Party_id.side label) Side.Left then u else b

let violation decision =
  match decision a ~copy:2, decision c ~copy:1 with
  | Some x, Some y when Party_id.equal x v && Party_id.equal y v ->
    Some
      "projection (iv): honest a and c both decide to match v \
       (non-competition violated; Lemma 5)"
  | _ -> None

let run =
  Covering.run
    {
      Covering.attack = "duplication attack (Lemma 5, Fig. 2)";
      topology = Topology.Fully_connected;
      small_k = 3;
      letters = "abc", "uvw";
      crossing;
      favorite;
      violation;
    }
