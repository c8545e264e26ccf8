open Bsm_prelude
module Engine = Bsm_runtime.Engine

let silent (_ : Engine.env) = ()

let crash_at ~round ~honest (env : Engine.env) =
  let crashed () = env.round () >= round in
  let env' =
    {
      env with
      send = (fun dst msg -> if not (crashed ()) then env.send dst msg);
      output = (fun out -> if not (crashed ()) then env.output out);
    }
  in
  honest env'

let random_bytes rng len = String.init len (fun _ -> Char.chr (Rng.int rng 256))

let noise ~seed ~rounds ~burst ~targets (env : Engine.env) =
  let rng = Rng.make (seed lxor Party_id.hash env.self) in
  let blast () =
    for _ = 1 to burst do
      let dst = Rng.choose rng targets in
      let len = 1 + Rng.int rng 64 in
      if not (Party_id.equal dst env.self) then env.send dst (random_bytes rng len)
    done
  in
  blast ();
  for _ = 1 to rounds do
    ignore (env.next_round ());
    blast ()
  done
