open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Wire = Bsm_wire.Wire

type instance = {
  tag : string;
  simulated_id : Party_id.t;
  simulated_k : int;
  program : Engine.program;
}

type outbound = {
  out_tag : string;
  out_dst : Party_id.t;
  out_body : string;
}

type inbound = {
  in_tag : string;
  in_src : Party_id.t;
  in_body : string;
}

type routed =
  | Drop
  | Physical of Party_id.t * string
  | Local of inbound

(* Dedicated effects for the simulated world, so that the inner handlers
   never intercept the engine's own effects (and vice versa). *)
type _ Effect.t +=
  | Sim_send : string * Party_id.t * string -> unit Effect.t
  | Sim_next : string -> Engine.envelope list Effect.t
  | Sim_output : string * string -> unit Effect.t

type sim_state =
  | Sim_running of (Engine.envelope list, unit) Effect.Deep.continuation
  | Sim_stopped

let run env ~instances ~rounds ~route_out ~route_in ~on_output =
  let states = Hashtbl.create 8 in
  let physical_round = ref (env.Engine.round ()) in
  (* Local deliveries queued during the current round, delivered with the
     next round's inbox (matching physical channel latency). *)
  let local_queue = ref [] in
  let sim_env (inst : instance) =
    {
      Engine.self = inst.simulated_id;
      k = inst.simulated_k;
      round = (fun () -> !physical_round);
      send = (fun dst body -> Effect.perform (Sim_send (inst.tag, dst, body)));
      send_w =
        (fun c dst v -> Effect.perform (Sim_send (inst.tag, dst, Wire.encode c v)));
      send_slice =
        (fun dst s ->
          Effect.perform (Sim_send (inst.tag, dst, Wire.Slice.to_string s)));
      send_multi_w =
        (fun c dsts v ->
          (* Simulated channels are string-queued: encode once, enqueue
             the shared string per destination. *)
          let body = Wire.encode c v in
          List.iter
            (fun dst -> Effect.perform (Sim_send (inst.tag, dst, body)))
            dsts);
      next_round = (fun () -> Effect.perform (Sim_next inst.tag));
      output = (fun payload -> Effect.perform (Sim_output (inst.tag, payload)));
      (* Simulated instances run inside a byzantine party's fiber; their
         state is the adversary's own and never exposed to the
         state-corruption plane. *)
      register_state = (fun _ _ -> ());
      register_cell = ignore;
    }
  in
  let drive tag f =
    let open Effect.Deep in
    match_with f ()
      {
        retc = (fun () -> Hashtbl.replace states tag Sim_stopped);
        exnc = (fun _ -> Hashtbl.replace states tag Sim_stopped);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sim_send (out_tag, out_dst, out_body) ->
              Some
                (fun (cont : (a, _) continuation) ->
                  (match route_out { out_tag; out_dst; out_body } with
                  | Physical (physical_dst, payload) ->
                    env.Engine.send physical_dst payload
                  | Local inbound -> local_queue := inbound :: !local_queue
                  | Drop -> ());
                  continue cont ())
            | Sim_next tag' ->
              Some
                (fun (cont : (a, _) continuation) ->
                  if String.equal tag' tag then
                    Hashtbl.replace states tag (Sim_running cont)
                  else
                    (* An instance can only park itself. *)
                    Hashtbl.replace states tag Sim_stopped)
            | Sim_output (tag', payload) ->
              Some
                (fun (cont : (a, _) continuation) ->
                  on_output tag' payload;
                  continue cont ())
            | _ -> None);
      }
  in
  List.iter
    (fun inst ->
      Hashtbl.replace states inst.tag Sim_stopped;
      drive inst.tag (fun () -> inst.program (sim_env inst)))
    instances;
  for _ = 1 to rounds do
    let locals = List.rev !local_queue in
    local_queue := [];
    let inbox = env.Engine.next_round () in
    physical_round := env.Engine.round ();
    let routed = Hashtbl.create 8 in
    let stash { in_tag; in_src; in_body } =
      let existing = try Hashtbl.find routed in_tag with Not_found -> [] in
      Hashtbl.replace routed in_tag
        ({ Engine.src = in_src; data = Wire.Slice.of_string in_body } :: existing)
    in
    (* Local messages first so per-sender order within a round is
       deterministic; the per-instance inbox is re-sorted below anyway. *)
    List.iter stash locals;
    List.iter
      (fun envelope ->
        match route_in envelope with
        | Some inbound -> stash inbound
        | None -> ())
      inbox;
    List.iter
      (fun inst ->
        match Hashtbl.find states inst.tag with
        | Sim_running cont ->
          let mine =
            List.stable_sort
              (fun (a : Engine.envelope) b -> Party_id.compare a.src b.src)
              (List.rev (try Hashtbl.find routed inst.tag with Not_found -> []))
          in
          Hashtbl.replace states inst.tag Sim_stopped;
          Effect.Deep.continue cont mine
        | Sim_stopped -> ())
      instances
  done
