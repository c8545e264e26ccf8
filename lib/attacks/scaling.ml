open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Wire = Bsm_wire.Wire

let tolerated ~big_k ~small_k t = t / Util.cdiv big_k small_k

(* Messages between big parties hosted by different small parties carry
   their big-system endpoints explicitly. *)
let wrapped = Wire.triple Wire.party_id Wire.party_id Wire.string

let shrink ~big_k ~small_k (protocol : Protocol_under_test.t) =
  if small_k <= 0 || small_k > big_k then invalid_arg "Scaling.shrink: bad small_k";
  (* Big party (side, i) is hosted by small party (side, i mod small_k);
     the representative of small (side, j) is big (side, j). *)
  let owner big = Party_id.make (Party_id.side big) (Party_id.index big mod small_k) in
  let group self =
    List.filter_map
      (fun i ->
        if i mod small_k = Party_id.index self then
          Some (Party_id.make (Party_id.side self) i)
        else None)
      (List.init big_k Fun.id)
  in
  let representative small = small in
  let program ~topology ~k:_ ~favorite ~self (env : Engine.env) =
    let my_group = group self in
    let rep = representative self in
    (* Inputs: the representative carries the small party's favorite,
       lifted to the representative of the favorite's group; other group
       members get an arbitrary (deterministic) favorite. *)
    let big_favorite big =
      if Party_id.equal big rep then favorite
      else Party_id.make (Side.opposite (Party_id.side big)) 0
    in
    let instances =
      List.map
        (fun big ->
          {
            Simulate.tag = Party_id.to_string big;
            simulated_id = big;
            simulated_k = big_k;
            program =
              protocol.Protocol_under_test.program ~topology ~k:big_k
                ~favorite:(big_favorite big) ~self:big;
          })
        my_group
    in
    let outputs = Hashtbl.create 4 in
    Simulate.run env ~instances ~rounds:protocol.Protocol_under_test.rounds
      ~route_out:(fun o ->
        let src = Party_id.of_string o.Simulate.out_tag in
        let dst = o.Simulate.out_dst in
        let host = owner dst in
        if not (Bsm_topology.Topology.connected topology src dst) then
          (* The big system has no such channel; local delivery must not
             bypass the topology the engine would enforce physically. *)
          Simulate.Drop
        else if Party_id.equal host self then
          if Party_id.equal dst src then Simulate.Drop (* self-send *)
          else
            Simulate.Local
              {
                Simulate.in_tag = Party_id.to_string dst;
                in_src = src;
                in_body = o.Simulate.out_body;
              }
        else Simulate.Physical (host, Wire.encode wrapped (src, dst, o.Simulate.out_body)))
      ~route_in:(fun e ->
        match Wire.decode_slice wrapped e.Engine.data with
        | Ok (src, dst, body) ->
          (* Anti-spoofing: the physical sender must host [src], and [dst]
             must be ours — otherwise this is byzantine noise. *)
          if
            Party_id.index src < big_k
            && Party_id.index dst < big_k
            && Party_id.equal (owner src) e.Engine.src
            && Party_id.equal (owner dst) self
          then
            Some
              { Simulate.in_tag = Party_id.to_string dst; in_src = src; in_body = body }
          else None
        | Error _ -> None)
      ~on_output:(fun tag payload -> Hashtbl.replace outputs tag payload);
    (* Output projection: the representative's match, kept only when it is
       itself a representative. *)
    let decision =
      match Hashtbl.find_opt outputs (Party_id.to_string rep) with
      | None -> None
      | Some payload -> (
        match Protocol_under_test.decode_decision payload with
        | Some partner when Party_id.index partner < small_k -> Some partner
        | Some _ | None -> None)
    in
    env.Engine.output (Wire.encode Bsm_core.Problem.decision_codec decision)
  in
  {
    Protocol_under_test.name =
      Printf.sprintf "%s shrunk %d->%d (Lemma 3)" protocol.Protocol_under_test.name
        big_k small_k;
    rounds = protocol.Protocol_under_test.rounds;
    program;
  }

let stress ?pool ~topology ~big_k ~small_ks ~seeds protocol =
  let cells =
    List.concat_map (fun small_k -> List.map (fun seed -> small_k, seed) seeds)
      small_ks
  in
  Bsm_harness.Sweep.map ?pool
    (fun (small_k, seed) ->
      let small = shrink ~big_k ~small_k protocol in
      let favorites = Bsm_core.Ssm.random_favorites (Rng.make seed) ~k:small_k in
      let violations =
        Evaluate.run ~topology ~k:small_k ~favorites ~byzantine:[] small
      in
      small_k, seed, violations)
    cells
