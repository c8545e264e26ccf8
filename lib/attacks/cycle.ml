open Bsm_prelude
module Topology = Bsm_topology.Topology

(* Small system: a,b = L0,L1; c,d = R0,R1. *)
let a = Party_id.left 0
let b = Party_id.left 1
let c = Party_id.right 0

(* The 8-cycle a1-c1-b1-d1-a2-c2-b2-d2-a1: only the a–d chords cross
   copies. *)
let crossing x y =
  let is_a p = Side.equal (Party_id.side p) Side.Left && Party_id.index p = 0 in
  let is_d p = Side.equal (Party_id.side p) Side.Right && Party_id.index p = 1 in
  (is_a x && is_d y) || (is_d x && is_a y)

(* Inputs: a1 <-> c1 and b2 <-> c2 mutual favorites; rest arbitrary. *)
let favorite label ~copy =
  match Side.equal (Party_id.side label) Side.Left, Party_id.index label, copy with
  | true, 0, 1 -> c (* a1 -> c *)
  | false, 0, 1 -> a (* c1 -> a *)
  | true, 1, 2 -> c (* b2 -> c *)
  | false, 0, 2 -> b (* c2 -> b *)
  | true, _, _ -> c
  | false, _, _ -> a

let violation decision =
  match decision a ~copy:1, decision b ~copy:2 with
  | Some x, Some y when Party_id.equal x c && Party_id.equal y c ->
    Some
      "final projection: honest a and b both decide to match byzantine c \
       (non-competition violated; Lemma 7)"
  | _ -> None

let run =
  Covering.run
    {
      Covering.attack = "cycle attack (Lemma 7, Fig. 3)";
      topology = Topology.Bipartite;
      small_k = 2;
      letters = "ab", "cd";
      crossing;
      favorite;
      violation;
    }
