(** The doubled covering system shared by Lemmas 5 and 7 (Figs. 2–3).

    A small k-party-per-side system is duplicated into a 2k-per-side
    one: node (x, i) is party x of copy i ∈ {1, 2}. Every pair of labels
    the small system's topology connects is wired either within a copy
    or, for the pairs the construction {e crosses}, between the two
    copies, so each node sees a locally-correct small network. Every
    node runs the honest protocol code under its small-system identity
    (through {!Simulate}), with its own input; the lemma then reads a
    non-competition violation off two nodes' decisions.

    A construction supplies only what differs between the figures: the
    small system, which label pairs cross, the inputs and the check. *)

open Bsm_prelude

type t = {
  attack : string;  (** the report's title, e.g. ["cycle attack (Lemma 7, Fig. 3)"] *)
  topology : Bsm_topology.Topology.t;  (** the small system's network *)
  small_k : int;  (** parties per side in the small system *)
  letters : string * string;
      (** node names of the left and the right parties, by index
          (["abc"], ["uvw"] names L0..L2 and R0..R2) *)
  crossing : Party_id.t -> Party_id.t -> bool;
      (** the label pairs wired across the two copies (symmetric) *)
  favorite : Party_id.t -> copy:int -> Party_id.t;
      (** the input of node (label, copy) *)
  violation : (Party_id.t -> copy:int -> Party_id.t option) -> string option;
      (** given each node's decision, [Some explanation] when the
          predicted violation materialized *)
}

(** [run t protocol] executes the covering system with [protocol] at
    every node; the report lists every node's decision. *)
val run : t -> Protocol_under_test.t -> Report.t
