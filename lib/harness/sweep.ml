open Bsm_prelude
module SM = Bsm_stable_matching
module Core = Bsm_core
module Pool = Bsm_runtime.Pool

type adversary =
  | Honest
  | Random_coalition

type case = {
  label : string;
  setting : Core.Setting.t;
  profile_seed : int;
  scenario_seed : int;
  adversary : adversary;
}

(* Rendering the setting is most of the cost of building a case, and
   sweeps build many cases per setting (each keeping its label for as
   long as its result lives): render each setting once per domain, up to
   a bound. *)
let rendered = Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let default_label setting =
  let tbl = Domain.DLS.get rendered in
  match Hashtbl.find_opt tbl setting with
  | Some l -> l
  | None ->
    let l = Format.asprintf "%a" Core.Setting.pp setting in
    if Hashtbl.length tbl >= 256 then Hashtbl.reset tbl;
    Hashtbl.add tbl setting l;
    l

let case ?label ?(profile_seed = 0) ?(scenario_seed = 0) ?(adversary = Honest)
    setting =
  let label =
    match label with
    | Some l -> l
    | None -> default_label setting
  in
  { label; setting; profile_seed; scenario_seed; adversary }

let scenario_of_case c =
  let rng = Rng.make c.profile_seed in
  let profile = SM.Profile.random rng c.setting.Core.Setting.k in
  let byzantine =
    match c.adversary with
    | Honest -> []
    | Random_coalition ->
      Adversaries.random_coalition rng ~setting:c.setting ~seed:c.scenario_seed
        ~profile
  in
  Scenario.make_exn ~byzantine ~seed:c.scenario_seed c.setting profile

let map ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some pool -> Pool.map pool f xs

type measurement = {
  wall_ms : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(* The minor words are read innermost: [Gc.minor_words] allocates
   nothing, so the count is [f]'s alone, while the tuples [Gc.counters]
   returns and the records of [Gc.quick_stat] fall outside it. *)
let measure f =
  let g0 = Gc.quick_stat () in
  let _, promoted0, major0 = Gc.counters () in
  let t0 = Unix.gettimeofday () in
  let minor0 = Gc.minor_words () in
  let v = f () in
  let minor1 = Gc.minor_words () in
  let t1 = Unix.gettimeofday () in
  let _, promoted1, major1 = Gc.counters () in
  let g1 = Gc.quick_stat () in
  ( v,
    {
      wall_ms = (t1 -. t0) *. 1000.;
      minor_words = minor1 -. minor0;
      major_words = major1 -. promoted1 -. (major0 -. promoted0);
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* --- fused scheduler ------------------------------------------------------ *)

module Fused = struct
  type table_stats = {
    table : string;
    tasks : int;
    task_ms_total : float;
    task_ms_max : float;
    minor_words : float;
    major_words : float;
  }

  type run_stats = {
    wall_ms : float;
    tasks : int;
    steals : int;
    jobs : int;
    tables : table_stats list;
  }

  (* One registered table, its element type hidden behind the [run]
     closure; per-task instrumentation lands in the plain float arrays
     (distinct indices from distinct domains — race-free, like the
     pool's result slots). *)
  type entry = {
    entry_table : string;
    entry_n : int;
    entry_run : int -> unit;
    entry_wall : float array;
    entry_minor : float array;
    entry_major : float array;
  }

  type t = {
    mutable entries : entry list;  (** reversed: latest first *)
    mutable drained : bool;
  }

  type 'b handle = {
    h_batch : t;
    h_entry : entry;
    h_out : 'b option array;
  }

  let create () = { entries = []; drained = false }

  let add t ~table f cells =
    if t.drained then invalid_arg "Sweep.Fused.add: batch already drained";
    let items = Array.of_list cells in
    let n = Array.length items in
    let out = Array.make n None in
    let wall = Array.make n 0. in
    let minor = Array.make n 0. in
    let major = Array.make n 0. in
    (* A task runs start-to-finish on one domain, which runs nothing else
       meanwhile, so [measure]'s words on that domain are the task's
       own. *)
    let run i =
      let v, m = measure (fun () -> f items.(i)) in
      wall.(i) <- m.wall_ms;
      minor.(i) <- m.minor_words;
      major.(i) <- m.major_words;
      out.(i) <- Some v
    in
    let entry =
      {
        entry_table = table;
        entry_n = n;
        entry_run = run;
        entry_wall = wall;
        entry_minor = minor;
        entry_major = major;
      }
    in
    t.entries <- entry :: t.entries;
    { h_batch = t; h_entry = entry; h_out = out }

  let sum a = Array.fold_left ( +. ) 0. a
  let maximum a = Array.fold_left Float.max 0. a

  let entry_stats e =
    {
      table = e.entry_table;
      tasks = e.entry_n;
      task_ms_total = sum e.entry_wall;
      task_ms_max = maximum e.entry_wall;
      minor_words = sum e.entry_minor;
      major_words = sum e.entry_major;
    }

  let drain ?pool t =
    if t.drained then invalid_arg "Sweep.Fused.drain: batch already drained";
    let entries = List.rev t.entries in
    (* The shared task graph: every table's cells flattened into one list
       in registration order, one pool task per cell, one drain point —
       no barrier between tables, so another table's cells fill the lanes
       a straggler would otherwise leave idle. *)
    let all_tasks =
      List.concat_map
        (fun e -> List.init e.entry_n (fun i () -> e.entry_run i))
        entries
    in
    let pool_stats0 =
      match pool with Some p -> Some (Pool.stats p) | None -> None
    in
    let t0 = Unix.gettimeofday () in
    (* Mark drained even if a cell raises: every cell still ran (Pool.map
       settles all tasks before re-raising), so the surviving tables'
       handles stay readable while the failed table's [results] reports
       its unfinished cells. *)
    Fun.protect
      ~finally:(fun () -> t.drained <- true)
      (fun () ->
        let (_ : unit list) = map ?pool (fun task -> task ()) all_tasks in
        ());
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let steals =
      match pool, pool_stats0 with
      | Some p, Some s0 -> (Pool.stats p).Pool.steals - s0.Pool.steals
      | _ -> 0
    in
    {
      wall_ms;
      tasks = List.fold_left (fun acc e -> acc + e.entry_n) 0 entries;
      steals;
      jobs = (match pool with Some p -> Pool.jobs p | None -> 1);
      tables = List.map entry_stats entries;
    }

  let results h =
    if not h.h_batch.drained then
      invalid_arg
        (Printf.sprintf "Sweep.Fused.results: %S read before drain"
           h.h_entry.entry_table);
    Array.to_list
      (Array.map
         (function
           | Some v -> v
           | None ->
             invalid_arg
               (Printf.sprintf
                  "Sweep.Fused.results: %S has unfinished cells (drain raised?)"
                  h.h_entry.entry_table))
         h.h_out)

  let stats h =
    if not h.h_batch.drained then
      invalid_arg
        (Printf.sprintf "Sweep.Fused.stats: %S read before drain"
           h.h_entry.entry_table);
    entry_stats h.h_entry
end
