(** The serve wire protocol: what a matchmaking client and the daemon
    exchange, over in-process rings or a Unix-domain socket.

    Frames are {!Bsm_wire.Wire} values like every other message in the
    repository, for the same reasons: clients can be byzantine (the
    fuzzer mutates these codecs — see {!fuzz_entries}), sizes are
    accountable, and the encoding is canonical. A {e workload} names one
    matching instance as plain data — implicit GS instance or full bSM
    scenario — so a submission is replayable from its bytes alone. *)

open Bsm_prelude
module SM := Bsm_stable_matching
module Core := Bsm_core

(** One matching instance, as data.

    - [Gs]: centralized Gale–Shapley on an implicit {!SM.Flat} instance,
      stability-checked with the early-exit verifier — the high-volume
      workload (k up to the scale frontier).
    - [Bsm]: a full byzantine protocol execution: the setting's
      protocol is selected and run against [coalition] scripted
      byzantine parties (a maximal admissible random coalition) and,
      in chaos mode, a fault schedule compiled onto the wire. The
      setting travels as {!Core.Setting.codec}, so a decoded one is
      valid. *)
type workload =
  | Gs of {
      k : int;
      seed : int;
      family : SM.Flat.family;
    }
  | Bsm of {
      setting : Core.Setting.t;
      profile_seed : int;
      scenario_seed : int;
      coalition : bool;
    }

type spec = {
  req_id : int;  (** client-chosen, echoed on every response *)
  workload : workload;
}

type request =
  | Submit of spec
  | Bye  (** orderly goodbye; the daemon drops the connection *)

(** Typed load-shed: admission control names why it refused. *)
type reject_reason =
  | Queue_full  (** backpressure — retry later *)
  | Too_large  (** k above the daemon's configured ceiling *)
  | Unsolvable
      (** a setting the paper's characterization rules out, or a
          duplicate live request id *)
  | Shutting_down

type outcome =
  | Matched of {
      fingerprint : int64;  (** splitmix64 hash of the matching *)
      rounds : int;  (** GS proposal rounds / engine rounds used *)
    }
  | Failed of string  (** verifier or oracle found a violation *)
  | Timed_out  (** a party ran out of rounds *)

type response =
  | Accepted of { req_id : int }
  | Rejected of {
      req_id : int;
      reason : reject_reason;
    }
  | Done of {
      req_id : int;
      outcome : outcome;
      arrival_tick : int;
      done_tick : int;  (** latency = [done_tick - arrival_tick] *)
    }

val workload_k : workload -> int
val reject_reason_to_string : reject_reason -> string
val pp_response : Format.formatter -> response -> unit

val workload_codec : workload Bsm_wire.Wire.t
val request_codec : request Bsm_wire.Wire.t
val response_codec : response Bsm_wire.Wire.t

(** Fuzz generators (exposed for the corpus and tests). *)

val gen_workload : Rng.t -> workload
val gen_request : Rng.t -> request
val gen_response : Rng.t -> response

(** The three serve codecs as fuzz entries, named [serve.workload],
    [serve.request] and [serve.response]. The fuzzed corpus is
    [Bsm_chaos.Codec_corpus.entries () @ fuzz_entries]: the chaos
    library sits below this one, so it cannot list them itself. *)
val fuzz_entries : Bsm_wire.Fuzz.entry list
