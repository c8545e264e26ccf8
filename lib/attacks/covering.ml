open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Topology = Bsm_topology.Topology

type t = {
  attack : string;
  topology : Topology.t;
  small_k : int;
  letters : string * string;
  crossing : Party_id.t -> Party_id.t -> bool;
  favorite : Party_id.t -> copy:int -> Party_id.t;
  violation : (Party_id.t -> copy:int -> Party_id.t option) -> string option;
}

(* Copies i ∈ {1,2} of small party x live at big index
   (index x) + small_k * (i - 1). *)
let big_id t label copy =
  Party_id.make (Party_id.side label) (Party_id.index label + (t.small_k * (copy - 1)))

let label_of t big =
  ( Party_id.make (Party_id.side big) (Party_id.index big mod t.small_k),
    (Party_id.index big / t.small_k) + 1 )

(* From big node (x, i), the copy hosting its neighbor with label y. *)
let neighbor_copy t (x, i) y = if t.crossing x y then 3 - i else i

let big_edge t u v =
  let lu, cu = label_of t u in
  let lv, cv = label_of t v in
  Topology.connected t.topology lu lv && cv = neighbor_copy t (lu, cu) lv

let node_name t big =
  let label, copy = label_of t big in
  let left, right = t.letters in
  let letters = if Side.equal (Party_id.side label) Side.Left then left else right in
  String.make 1 letters.[Party_id.index label] ^ string_of_int copy

let run t (protocol : Protocol_under_test.t) =
  let outputs = Hashtbl.create 16 in
  let node_program big (env : Engine.env) =
    let label, copy = label_of t big in
    let program =
      protocol.Protocol_under_test.program ~topology:t.topology ~k:t.small_k
        ~favorite:(t.favorite label ~copy) ~self:label
    in
    Simulate.run env
      ~instances:
        [
          { Simulate.tag = "node"; simulated_id = label; simulated_k = t.small_k; program };
        ]
      ~rounds:protocol.Protocol_under_test.rounds
      ~route_out:(fun o ->
        Simulate.Physical
          ( big_id t o.Simulate.out_dst (neighbor_copy t (label, copy) o.Simulate.out_dst),
            o.Simulate.out_body ))
      ~route_in:(fun e ->
        let src_label, _ = label_of t e.Engine.src in
        Some
          {
            Simulate.in_tag = "node";
            in_src = src_label;
            in_body = Bsm_wire.Wire.Slice.to_string e.Engine.data;
          })
      ~on_output:(fun _ payload ->
        Hashtbl.replace outputs big (Protocol_under_test.decode_decision payload))
  in
  let big_k = 2 * t.small_k in
  let cfg = Engine.config ~k:big_k ~link:(Engine.Custom (big_edge t)) ~max_rounds:200 () in
  ignore (Engine.run cfg ~programs:node_program);
  let decision big = Option.join (Hashtbl.find_opt outputs big) in
  {
    Report.attack = t.attack;
    protocol = protocol.Protocol_under_test.name;
    outputs = List.map (fun big -> node_name t big, decision big) (Party_id.all ~k:big_k);
    violation = t.violation (fun label ~copy -> decision (big_id t label copy));
  }
