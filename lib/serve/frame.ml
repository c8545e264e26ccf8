open Bsm_prelude
module Wire = Bsm_wire.Wire
module Fuzz = Bsm_wire.Fuzz
module SM = Bsm_stable_matching
module Core = Bsm_core
module Topology = Bsm_topology.Topology

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
  req_id : int;
  workload : workload;
}

type request =
  | Submit of spec
  | Bye

type reject_reason =
  | Queue_full
  | Too_large
  | Unsolvable
  | Shutting_down

type outcome =
  | Matched of {
      fingerprint : int64;
      rounds : int;
    }
  | Failed of string
  | Timed_out

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
      done_tick : int;
    }

let workload_k = function
  | Gs { k; _ } -> k
  | Bsm { setting; _ } -> setting.Core.Setting.k

let reject_reason_to_string = function
  | Queue_full -> "queue-full"
  | Too_large -> "too-large"
  | Unsolvable -> "unsolvable"
  | Shutting_down -> "shutting-down"

let pp_response ppf = function
  | Accepted { req_id } -> Format.fprintf ppf "accepted #%d" req_id
  | Rejected { req_id; reason } ->
    Format.fprintf ppf "rejected #%d (%s)" req_id (reject_reason_to_string reason)
  | Done { req_id; outcome; arrival_tick; done_tick } -> (
    match outcome with
    | Matched { fingerprint; rounds } ->
      Format.fprintf ppf "done #%d matched fp=%Lx rounds=%d latency=%d" req_id
        fingerprint rounds (done_tick - arrival_tick)
    | Failed msg -> Format.fprintf ppf "done #%d failed: %s" req_id msg
    | Timed_out -> Format.fprintf ppf "done #%d timed out" req_id)

(* --- codecs -------------------------------------------------------------- *)

let family_codec =
  Wire.enum ~name:"serve.family" [ SM.Flat.Uniform; SM.Flat.Common_acceptors ]

let workload_codec =
  let gs =
    Wire.case 0
      (Wire.triple Wire.uint Wire.int family_codec)
      ~inject:(fun (k, seed, family) ->
        if k < 1 then raise (Wire.Malformed "serve.workload: gs k < 1")
        else Gs { k; seed; family })
      ~match_:(function Gs { k; seed; family } -> Some (k, seed, family) | _ -> None)
  in
  let bsm =
    Wire.case 1
      (Wire.pair Core.Setting.codec (Wire.triple Wire.int Wire.int Wire.bool))
      ~inject:(fun (setting, (profile_seed, scenario_seed, coalition)) ->
        Bsm { setting; profile_seed; scenario_seed; coalition })
      ~match_:(function
        | Bsm { setting; profile_seed; scenario_seed; coalition } ->
          Some (setting, (profile_seed, scenario_seed, coalition))
        | _ -> None)
  in
  Wire.variant ~name:"serve.workload" [ Wire.pack gs; Wire.pack bsm ]

let spec_codec =
  Wire.map
    (Wire.pair Wire.uint workload_codec)
    ~inject:(fun (req_id, workload) -> { req_id; workload })
    ~project:(fun { req_id; workload } -> (req_id, workload))

let request_codec =
  let submit =
    Wire.case 0 spec_codec
      ~inject:(fun spec -> Submit spec)
      ~match_:(function Submit spec -> Some spec | Bye -> None)
  in
  let bye =
    Wire.case 1 Wire.unit
      ~inject:(fun () -> Bye)
      ~match_:(function Bye -> Some () | Submit _ -> None)
  in
  Wire.variant ~name:"serve.request" [ Wire.pack submit; Wire.pack bye ]

let reject_reason_codec =
  Wire.enum ~name:"serve.reject" [ Queue_full; Too_large; Unsolvable; Shutting_down ]

let outcome_codec =
  let matched =
    Wire.case 0
      (Wire.pair Wire.int64 Wire.uint)
      ~inject:(fun (fingerprint, rounds) -> Matched { fingerprint; rounds })
      ~match_:(function
        | Matched { fingerprint; rounds } -> Some (fingerprint, rounds) | _ -> None)
  in
  let failed =
    Wire.case 1 Wire.string
      ~inject:(fun msg -> Failed msg)
      ~match_:(function Failed msg -> Some msg | _ -> None)
  in
  let timed_out =
    Wire.case 2 Wire.unit
      ~inject:(fun () -> Timed_out)
      ~match_:(function Timed_out -> Some () | _ -> None)
  in
  Wire.variant ~name:"serve.outcome"
    [ Wire.pack matched; Wire.pack failed; Wire.pack timed_out ]

let response_codec =
  let accepted =
    Wire.case 0 Wire.uint
      ~inject:(fun req_id -> Accepted { req_id })
      ~match_:(function Accepted { req_id } -> Some req_id | _ -> None)
  in
  let rejected =
    Wire.case 1
      (Wire.pair Wire.uint reject_reason_codec)
      ~inject:(fun (req_id, reason) -> Rejected { req_id; reason })
      ~match_:(function
        | Rejected { req_id; reason } -> Some (req_id, reason) | _ -> None)
  in
  let done_ =
    Wire.case 2
      (Wire.pair
         (Wire.pair Wire.uint outcome_codec)
         (Wire.pair Wire.uint Wire.uint))
      ~inject:(fun ((req_id, outcome), (arrival_tick, done_tick)) ->
        Done { req_id; outcome; arrival_tick; done_tick })
      ~match_:(function
        | Done { req_id; outcome; arrival_tick; done_tick } ->
          Some ((req_id, outcome), (arrival_tick, done_tick))
        | _ -> None)
  in
  Wire.variant ~name:"serve.response"
    [ Wire.pack accepted; Wire.pack rejected; Wire.pack done_ ]

(* --- fuzz generators ----------------------------------------------------- *)

let gen_workload rng =
  if Rng.bool rng then
    Gs
      {
        k = 1 + Rng.int rng 32;
        seed = Rng.int rng 10_000;
        family = (if Rng.bool rng then SM.Flat.Uniform else SM.Flat.Common_acceptors);
      }
  else begin
    (* The corpus's fixed draw order, k first and then the last field
       first, so a seed keeps its workload and the fuzz rows pinned in
       bin/fuzz.t stay put. *)
    let k = 1 + Rng.int rng 6 in
    let coalition = Rng.bool rng in
    let scenario_seed = Rng.int rng 10_000 in
    let profile_seed = Rng.int rng 10_000 in
    let t_right = Rng.int rng (k + 1) in
    let t_left = Rng.int rng (k + 1) in
    let auth =
      if Rng.bool rng then Core.Setting.Authenticated else Core.Setting.Unauthenticated
    in
    let topology =
      Rng.choose rng
        [ Topology.Fully_connected; Topology.One_sided; Topology.Bipartite ]
    in
    Bsm
      {
        setting = Core.Setting.make_exn ~k ~topology ~auth ~t_left ~t_right;
        profile_seed;
        scenario_seed;
        coalition;
      }
  end

let gen_spec rng = { req_id = Rng.int rng 1_000_000; workload = gen_workload rng }

let gen_request rng = if Rng.int rng 8 = 0 then Bye else Submit (gen_spec rng)

let gen_outcome rng =
  match Rng.int rng 3 with
  | 0 ->
    Matched
      {
        fingerprint = Rng.mix64 (Int64.of_int (Rng.int rng 1_000_000));
        rounds = Rng.int rng 1_000;
      }
  | 1 -> Failed (String.init (Rng.int rng 16) (fun _ -> Char.chr (32 + Rng.int rng 95)))
  | _ -> Timed_out

let gen_response rng =
  let req_id = Rng.int rng 1_000_000 in
  match Rng.int rng 3 with
  | 0 -> Accepted { req_id }
  | 1 ->
    Rejected
      {
        req_id;
        reason = Rng.choose rng [ Queue_full; Too_large; Unsolvable; Shutting_down ];
      }
  | _ ->
    let arrival = Rng.int rng 10_000 in
    Done
      {
        req_id;
        outcome = gen_outcome rng;
        arrival_tick = arrival;
        done_tick = arrival + Rng.int rng 1_000;
      }

let fuzz_entries =
  [
    Fuzz.entry ~name:"serve.workload" ~gen:gen_workload ~equal:( = ) workload_codec;
    Fuzz.entry ~name:"serve.request" ~gen:gen_request ~equal:( = ) request_codec;
    Fuzz.entry ~name:"serve.response" ~gen:gen_response ~equal:( = ) response_codec;
  ]
