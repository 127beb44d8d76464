(* Kernel -> tape lowering for the fused execution engine.

   The planner records, per op, where its value lives (Table 1's four
   stitching schemes mapped to placements); this module turns each kernel
   into the structural recipe the runtime executor compiles into closures:

   - Register ops become [Inline] - recomputed per consumer read, zero
     materialization (the paper's Local scheme) - or [Held] (below);
   - Shared_mem ops become [Staged] - kept in a per-block slab sized from
     the thread mapping's contiguous block geometry (Regional scheme);
   - Global_scratch ops become [Staged_global] - written to a per-kernel
     global-memory scratch slot whose availability is sequenced by
     in-kernel global barriers (Global scheme); Shared_mem ops that
     cannot be staged regionally demote to this role when the kernel's
     launch can legally hold the barrier;
   - Device_mem ops become [Materialize] - the only values that touch
     full plan-wide buffers, drawn from the liveness arena - or [Alias]
     when a reshape can view existing full storage.

   Lowering is purely structural (no tensor values): it classifies roles,
   validates that every read is of an available value under the plan's
   own ordering (mirroring the availability invariant the reference
   executor enforces dynamically), computes plan-wide liveness intervals
   - in kernel positions - for every buffer the fused engine must
   allocate, and sequences each kernel's global-scratch writes and reads
   into barrier-separated segments (a read of a scratch value staged
   since the last barrier point inserts a barrier before the reading
   producer; [Barrier.is_legal] bounds the grid, so an over-wide kernel
   rejects instead of deadlocking).

   Holds.  An [Inline] value costs its work once per loop that reads it,
   where the plan may charge it once (paper §3.2: a thread keeps a
   Register value for all its consumers).  A Register value that is
   heavy ([Op.weight]), charged once ([recompute = 1]), read by two or
   more of the kernel's loops and whose own reads reach no multi-block
   slab becomes [Held]: the engine writes it once per run, by its own
   loop, into a per-kernel buffer placed just before the first loop
   that reads it, and later loops read that buffer.  Loops read lazy
   values through Register chains and through slab refills (a slab is
   refilled inside whichever loop reads it), so a value's readers are
   gathered from its consumers backwards, in reverse op order; a held
   consumer counts as one loop, its own.  Barriers and scratch slots
   are sequenced as if nothing were held: the hold loop reads a subset
   of what its first reading loop reads, after that loop's barrier, and
   a value with no multi-block slab refills no block out of order.
   Recompute stays for light values, for plan [recompute > 1] and
   within one loop.

   Unstitched kernels.  A kernel that uses a pattern the stitched
   lowering rejects - and every kernel under [~fused:false] - lowers
   with each op in its own full buffer instead: [Materialize], [Alias]
   for a reshape, no role for a leaf (parameters bind per run,
   constants and iotas are evaluated once).  Its tape carries the
   reason in [fallback].  Availability still follows the plan's
   placements, and a node an earlier kernel already materialized is
   written again into its own slot, whose interval is extended to the
   later kernel.  The availability check is the same for both
   lowerings, so a plan that reads a value it never made available
   raises [Unavailable] whichever way its kernels lower. *)

open Astitch_ir
open Astitch_simt

type role =
  | Inline (* Register: recomputed inside consumer loops *)
  | Held of { before : Op.node_id }
      (* Register: one loop per run into a hold buffer, before [before] *)
  | Staged of { block_elems : int } (* Shared_mem: per-block slab *)
  | Staged_global of { elems : int; demoted : bool }
      (* Global_scratch: per-kernel scratch slot behind a barrier *)
  | Materialize (* full buffer from the arena *)
  | Alias of { root : Op.node_id } (* reshape view of full storage *)

type kernel_tape = {
  kernel : Kernel_plan.kernel;
  pos : int; (* kernel position in plan order *)
  roles : (Op.node_id * role) list; (* op order, first occurrence only *)
  materialized : Op.node_id list; (* ids written to full storage or bound *)
  barriers : int; (* global barrier points executed per run *)
  barrier_before : Op.node_id list; (* producers preceded by a barrier *)
  gslots : (Op.node_id * int * int * int) list;
      (* staged-global slots: id, elems, def / last-read action index *)
  demotions : (Op.node_id * string) list; (* regional -> global demotions *)
  fallback : string option; (* why every op is materialized, if it is *)
}

type interval = {
  node : Op.node_id;
  elems : int;
  def_pos : int;
  last_pos : int; (* [num_positions] when the buffer backs an output *)
}

type t = {
  plan : Kernel_plan.t;
  kernels : kernel_tape list; (* plan order *)
  intervals : interval list; (* one per materialized node *)
  num_positions : int; (* kernel count; the output-read position *)
}

exception Reject of string
exception Unavailable of string

(* the ids a kernel writes to full storage or binds as views *)
let materialized roles =
  List.filter_map
    (fun (id, r) -> match r with Materialize | Alias _ -> Some id | _ -> None)
    roles

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

let lower ?(fused = true) (plan : Kernel_plan.t) : t =
  let g = plan.graph in
  let n = Graph.num_nodes g in
  let num_positions = List.length plan.kernels in
  (* full-storage availability across kernels: leaves up front,
     Device_mem results after their kernel, on-chip results never
     (purged at the kernel boundary) *)
  let avail = Array.init n (fun id -> Kernel_plan.is_leaf g id) in
  (* materialized buffers: the first kernel that writes each (with its
     element count), and the last kernel that writes it again *)
  let def = Array.make n None in
  let redef = Array.make n (-1) in
  (* every operand of [o] is defined earlier in this kernel ([here]) or
     available from before it *)
  let require (k : Kernel_plan.kernel) here (o : Kernel_plan.compiled_op) =
    List.iter
      (fun p ->
        if not (here p || avail.(p)) then
          raise
            (Unavailable
               (Printf.sprintf "kernel %s: op %%%d reads %%%d which is not \
                                available"
                  k.name o.id p)))
      (Graph.operands g o.id)
  in
  let lower_kernel pos (k : Kernel_plan.kernel) =
    let seen : (Op.node_id, role) Hashtbl.t = Hashtbl.create 16 in
    (* a read is direct when it can see full storage: a leaf, an earlier
       kernel's device result, or full storage defined earlier in this
       kernel *)
    let direct id =
      match Hashtbl.find_opt seen id with
      | Some (Materialize | Alias _) -> true
      | Some (Inline | Held _ | Staged _ | Staged_global _) -> false
      | None -> avail.(id)
    in
    let demotions = ref [] in
    let roles = ref [] in
    let candidates = ref [] in
    List.iter
      (fun (o : Kernel_plan.compiled_op) ->
        if not (Hashtbl.mem seen o.id) then begin
          let nd = Graph.node g o.id in
          require k (Hashtbl.mem seen) o;
          let role =
            match o.placement with
            | Kernel_plan.Register ->
                if not (Op.scalarizable nd.op) then
                  reject "op %d (%s) cannot be scalarized" o.id
                    (Op.mnemonic nd.op);
                if o.recompute = 1 && Op.weight nd.op = Op.Heavy then
                  candidates := o.id :: !candidates;
                Inline
            | Kernel_plan.Shared_mem -> (
                (* regional -> global demotion: a value that cannot live
                   in a per-block slab can still stitch through a global
                   scratch slot behind a barrier - provided the launch
                   keeps every block resident (otherwise the barrier
                   would deadlock, so the pattern stays a reject) *)
                let stage_globally why =
                  if Barrier.is_legal plan.arch k.launch then begin
                    demotions := (o.id, why) :: !demotions;
                    Staged_global
                      { elems = Graph.num_elements g o.id; demoted = true }
                  end
                  else
                    reject
                      "%s (global-staging demotion needs an illegal \
                       barrier: grid %d > %d co-resident blocks)"
                      why k.launch.Launch.grid
                      (Occupancy.blocks_per_wave plan.arch k.launch)
                in
                match nd.op with
                | Op.Parameter _ ->
                    reject "op %d: parameter inside a kernel" o.id
                | _ -> (
                    if not (Op.scalarizable nd.op) then
                      stage_globally
                        (Printf.sprintf "op %d (%s) cannot be staged" o.id
                           (Op.mnemonic nd.op))
                    else
                      match
                        Thread_mapping.contiguous_outputs_per_block o.mapping
                      with
                      | None ->
                          stage_globally
                            (Printf.sprintf
                               "op %d: no contiguous block geometry to stage"
                               o.id)
                      | Some c ->
                          let total = Graph.num_elements g o.id in
                          Staged
                            { block_elems = Stdlib.max 1 (Stdlib.min c total) }
                    ))
            | Kernel_plan.Global_scratch -> (
                match nd.op with
                | Op.Parameter _ ->
                    reject "op %d: parameter inside a kernel" o.id
                | Op.Reshape { input } when direct input ->
                    Alias { root = input }
                | _ ->
                    Staged_global
                      { elems = Graph.num_elements g o.id; demoted = false })
            | Kernel_plan.Device_mem -> (
                match nd.op with
                | Op.Parameter _ ->
                    reject "op %d: parameter inside a kernel" o.id
                | Op.Reshape { input } when direct input ->
                    Alias { root = input }
                | _ -> Materialize)
          in
          Hashtbl.replace seen o.id role;
          roles := (o.id, role) :: !roles
        end)
      k.ops;
    let roles = List.rev !roles in
    let role_of id = Hashtbl.find_opt seen id in
    (* ---- barrier sequencing ----
       Barrier-protected producers are the values crossing blocks through
       global memory inside this kernel: every [Staged_global] slot, plus
       Device_mem results the planner marked [Scheme.Global] (their
       in-kernel consumers read them through global memory too). *)
    let source = Hashtbl.create 8 in
    List.iter
      (fun (o : Kernel_plan.compiled_op) ->
        match role_of o.id with
        | Some (Staged_global _) -> Hashtbl.replace source o.id ()
        | Some Materialize when o.scheme = Scheme.Global ->
            Hashtbl.replace source o.id ()
        | _ -> ())
      k.ops;
    let rec root_of id =
      match role_of id with Some (Alias { root }) -> root_of root | _ -> id
    in
    (* scratch_deps id: barrier-protected producers read when one element
       of [id] is evaluated - through scalarized/slab-staged chains, which
       re-read their own operands lazily at the consumer's position *)
    let deps_memo : (Op.node_id, Op.node_id list) Hashtbl.t =
      Hashtbl.create 16
    in
    let rec scratch_deps id =
      match Hashtbl.find_opt deps_memo id with
      | Some d -> d
      | None ->
          let d =
            List.fold_left
              (fun acc p ->
                let p = root_of p in
                if Hashtbl.mem source p then p :: acc
                else
                  match role_of p with
                  | Some (Inline | Staged _) ->
                      List.rev_append (scratch_deps p) acc
                  | _ -> acc)
              [] (Graph.operands g id)
          in
          Hashtbl.replace deps_memo id d;
          d
    in
    (* Walk the producers that run as actions (everything but lazy
       Inline/Staged values) in execution order.  Reading a protected
       value written since the last barrier point opens a new segment:
       one global barrier before the reading producer. *)
    let pending = Hashtbl.create 8 in
    let barriers = ref 0 in
    let barrier_before = ref [] in
    let action_index = Hashtbl.create 16 in
    let last_read = Hashtbl.create 16 in
    let next_idx = ref 0 in
    List.iter
      (fun (id, role) ->
        match role with
        | Inline | Held _ | Staged _ -> ()
        | Staged_global _ | Materialize | Alias _ ->
            let i = !next_idx in
            incr next_idx;
            Hashtbl.replace action_index id i;
            let ds = scratch_deps id in
            List.iter (fun d -> Hashtbl.replace last_read d i) ds;
            if List.exists (Hashtbl.mem pending) ds then begin
              incr barriers;
              barrier_before := id :: !barrier_before;
              Hashtbl.reset pending
            end;
            if Hashtbl.mem source id then Hashtbl.replace pending id ())
      roles;
    if !barriers > 0 && not (Barrier.is_legal plan.arch k.launch) then
      reject
        "kernel %s: %d global barrier(s) but grid %d > %d co-resident \
         blocks - must split"
        k.name !barriers k.launch.Launch.grid
        (Occupancy.blocks_per_wave plan.arch k.launch);
    (* per-kernel scratch-slot intervals, in action indices: a slot is
       live from its staging loop to the last action whose evaluation
       reads it (lazy reads charge to the reading action) *)
    let gslots =
      List.filter_map
        (fun (id, role) ->
          match role with
          | Staged_global { elems; _ } ->
              let d = Hashtbl.find action_index id in
              let l =
                Stdlib.max d
                  (Option.value ~default:d (Hashtbl.find_opt last_read id))
              in
              Some (id, elems, d, l)
          | _ -> None)
        roles
    in
    (* ---- holds ----
       [readers id]: the first two loops, by place, that read lazy value
       [id] - producer actions and holds - gathered from its consumers,
       which follow it in op order; two are enough to tell one reading
       loop from several and to find the first.  [held]: each held
       value with the producer whose action its hold precedes. *)
    let held =
      (* a hold needs two loops reading it, so two actions at least *)
      if !candidates = [] || !next_idx < 2 then []
      else begin
        let held = ref [] and readers = Hashtbl.create 16 in
        (* a hold runs just before the action of the producer it
           precedes *)
        let place r =
          Hashtbl.find action_index
            (Option.value ~default:r (List.assoc_opt r !held))
        in
        let earlier a b =
          let pa = place a and pb = place b in
          pa < pb || (pa = pb && a < b)
        in
        let add rs r =
          match rs with
          | [] -> [ r ]
          | [ a ] when a = r -> rs
          | [ a ] -> if earlier r a then [ r; a ] else [ a; r ]
          | [ a; b ] when a = r || b = r -> rs
          | [ a; b ] ->
              if earlier r a then [ r; a ]
              else if earlier r b then [ a; r ]
              else rs
          | _ -> assert false
        in
        let lazy_role p =
          match role_of p with Some (Inline | Staged _) -> true | _ -> false
        in
        (* reading [id] may refill a multi-block slab *)
        let memo = Hashtbl.create 16 in
        let rec multi id =
          match Hashtbl.find_opt memo id with
          | Some m -> m
          | None ->
              let m =
                List.exists
                  (fun p ->
                    match role_of p with
                    | Some (Staged { block_elems }) ->
                        block_elems < Graph.num_elements g p || multi p
                    | Some Inline -> multi p
                    | _ -> false)
                  (Graph.operands g id)
              in
              Hashtbl.replace memo id m;
              m
        in
        let readers_of id =
          match Hashtbl.find readers id with
          | rs -> rs
          | exception Not_found -> []
        in
        List.iter
          (fun (id, role) ->
            let rs = readers_of id in
            let via =
              match (role, rs) with
              | (Staged_global _ | Materialize), _ -> [ id ]
              | (Alias _ | Held _), _ -> []
              | Staged _, _ -> rs
              | Inline, [ first; _ ]
                when List.mem id !candidates && not (multi id) ->
                  let before =
                    Option.value ~default:first (List.assoc_opt first !held)
                  in
                  held := (id, before) :: !held;
                  [ id ]
              | Inline, _ -> rs
            in
            if via <> [] then
              List.iter
                (fun p ->
                  if lazy_role p then
                    Hashtbl.replace readers p
                      (List.fold_left add (readers_of p) via))
                (Graph.operands g id))
          (List.rev roles);
        !held
      end
    in
    let roles =
      if held = [] then roles
      else
        List.map
          (fun ((id, _) as r) ->
            match List.assoc_opt id held with
            | Some before -> (id, Held { before })
            | None -> r)
          roles
    in
    {
      kernel = k;
      pos;
      roles;
      materialized = materialized roles;
      barriers = !barriers;
      barrier_before = List.rev !barrier_before;
      gslots;
      demotions = List.rev !demotions;
      fallback = None;
    }
  in
  (* every op in its own full buffer: a reshape views its operand, a
     leaf needs no role *)
  let lower_unstitched pos (k : Kernel_plan.kernel) reason =
    let seen = Hashtbl.create 16 in
    let roles =
      List.filter_map
        (fun (o : Kernel_plan.compiled_op) ->
          if Hashtbl.mem seen o.id then None
          else begin
            require k (Hashtbl.mem seen) o;
            Hashtbl.replace seen o.id ();
            match (Graph.node g o.id).op with
            | Op.Parameter _ | Op.Constant _ | Op.Iota _ -> None
            | Op.Reshape { input } -> Some (o.id, Alias { root = input })
            | _ -> Some (o.id, Materialize)
          end)
        k.ops
    in
    {
      kernel = k;
      pos;
      roles;
      materialized = materialized roles;
      barriers = 0;
      barrier_before = [];
      gslots = [];
      demotions = [];
      fallback = Some reason;
    }
  in
  let kernels =
    List.mapi
      (fun pos (k : Kernel_plan.kernel) ->
        let tape =
          if not fused then lower_unstitched pos k "fused execution disabled"
          else
            match lower_kernel pos k with
            | tape -> tape
            | exception Reject reason -> lower_unstitched pos k reason
        in
        List.iter
          (fun (o : Kernel_plan.compiled_op) ->
            avail.(o.id) <- o.placement = Kernel_plan.Device_mem)
          k.ops;
        List.iter
          (fun (id, r) ->
            match (r, def.(id)) with
            | Materialize, None ->
                def.(id) <- Some (pos, Graph.num_elements g id)
            | Materialize, Some _ -> redef.(id) <- pos
            | _ -> ())
          tape.roles;
        tape)
      plan.kernels
  in
  List.iter
    (fun id ->
      if not avail.(id) then
        raise
          (Unavailable
             (Printf.sprintf "graph output %%%d is never materialized" id)))
    (Graph.outputs g);
  (* plan-wide storage roots: follow reshape edges down to the first node
     that owns its own buffer (has a def entry) or is not a reshape;
     reads and outputs then pin the owning buffer, so a view can never
     outlive the storage it aliases *)
  let rec storage_root id =
    if def.(id) <> None then id
    else
      match (Graph.node g id).op with
      | Op.Reshape { input } -> storage_root input
      | _ -> id
  in
  let last = Array.make n (-1) in
  List.iteri
    (fun pos (k : Kernel_plan.kernel) ->
      List.iter
        (fun (o : Kernel_plan.compiled_op) ->
          List.iter
            (fun p ->
              let r = storage_root p in
              if last.(r) < pos then last.(r) <- pos)
            (Graph.operands g o.id))
        k.ops)
    plan.kernels;
  List.iter
    (fun id -> last.(storage_root id) <- num_positions)
    (Graph.outputs g);
  let intervals =
    List.concat_map
      (fun tape ->
        List.filter_map
          (fun (id, r) ->
            match (r, def.(id)) with
            | Materialize, Some (def_pos, elems) when def_pos = tape.pos ->
                Some
                  {
                    node = id;
                    elems;
                    def_pos;
                    last_pos =
                      Stdlib.max def_pos (Stdlib.max last.(id) redef.(id));
                  }
            | _ -> None)
          tape.roles)
      kernels
  in
  { plan; kernels; intervals; num_positions }
