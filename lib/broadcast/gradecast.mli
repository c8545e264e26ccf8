(** Gradecast (graded broadcast, Feldman–Micali), generalized to adversary
    structures.

    A one-shot, constant-round relative of byzantine broadcast: each party
    outputs a value with a {e grade} in {0, 1, 2} quantifying its
    confidence. Under the Q3 condition:

    - {b validity}: an honest sender's value is output by every honest
      party with grade 2;
    - {b graded consistency}: if some honest party outputs [(v, 2)], every
      honest party outputs [(v, 1)] or [(v, 2)] — grades of honest parties
      never differ by more than one, and all honest parties with grade ≥ 1
      hold the same value.

    This is the same accept-by-quorum structure as Π_BA's final echo round
    (a grade-1-vs-grade-2 distinction collapsed to "output or ⊥"); exposed
    as its own primitive because composed protocols often need the full
    grade — e.g. to decide whether to adopt a value (grade 2), carry it
    tentatively (grade 1), or fall back to a default (grade 0).

    Three virtual rounds: value, echo, ready. *)

open Bsm_prelude

type params = {
  structure : Adversary_structure.t;
  participants : Party_id.t list;
}

(** Output: the value (if any) and its grade; grade 0 always carries
    [None]. *)
type verdict = {
  value : string option;
  grade : int;
}

val make :
  params ->
  self:Party_id.t ->
  sender:Party_id.t ->
  input:string ->
  verdict Machine.t

(** {2 Wire format}

    The message format, exposed for the decoder fuzzer. *)

type msg =
  | Value of string
  | Echo of string
  | Ready of string

val codec : msg Bsm_wire.Wire.t
