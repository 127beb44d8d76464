(* Per-element ("register") evaluation of graph ops, a tile at a time.

   The fused execution engine computes Register-placement values inside
   their consumers' loops instead of materializing them.  [compile] turns
   one node into a [t]: an element accessor [get] over the node's output
   linear index, and a tile writer [fill dst off lo len] that writes
   elements lo .. lo+len-1 into [dst] from index [off], with [len] at
   most [tile].  Operands arrive in the same form; operands held in full
   storage also expose their backing array ([storage]), which consumers
   read once per tile instead of once per element.

   Every case, accessor and tile writer alike, performs for each output
   element the same float operations in the same order as the matching
   case of [Interp.eval_node_into], so writing the elements of a buffer
   tile by tile is bit-identical to the interpreter's materializing
   evaluation.  The tile writers change only loop structure and index
   arithmetic: per-kind matches are hoisted out of the loops, index
   decoding happens once per last-axis run instead of once per element,
   and float intermediates stay unboxed in float arrays.  Ops with no
   specialised writer fill through their accessor, element by element.

   Reductions deserve the one-line proof: [Interp] sweeps all input
   linear indices ascending, dispatching each into its output
   accumulator.  Restricted to a single accumulator that is exactly "its
   contributing input indices, ascending" - and that is the order the
   per-element fold below visits them in (reduced axes ascending, i.e.
   strides descending, lexicographic = ascending linear order).  Over a
   trailing suffix of axes those indices are one contiguous range, folded
   tile by tile.  Dot sums [kk] ascending from 0 for every element
   whether it runs per element or as an i-k-j loop over an output row. *)

open Astitch_ir

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt
let tile = 256

type t = {
  get : int -> float;
  fill : float array -> int -> int -> int -> unit;
  storage : (unit -> float array) option;
  slabs : int list;
}

let storage ~get data =
  {
    get;
    fill = (fun dst off lo len -> Array.blit (data ()) lo dst off len);
    storage = Some data;
    slabs = [];
  }

let reach ts = List.sort_uniq compare (List.concat_map (fun t -> t.slabs) ts)
let disjoint a b = not (List.exists (fun x -> List.mem x b.slabs) a.slabs)

(* A computed value.  Ops without a tile writer, and ops whose writer
   would read some slab in another order than their accessor does, fill
   through the accessor, element by element. *)
let computed ?fill ~slabs get =
  match fill with
  | Some fill -> { get; fill; storage = None; slabs }
  | None ->
      let fill dst off lo len =
        for k = 0 to len - 1 do
          dst.(off + k) <- get (lo + k)
        done
      in
      { get; fill; storage = None; slabs }

(* operand tile scratch: one tile, or the whole value when smaller *)
let scratch elems = Array.make (Stdlib.min tile elems) 0.

(* Row-major multi-index decode of [i] by [strides] into [dst]; the same
   div/mod walk [Shape.multi_index] performs. *)
let decode strides i dst =
  let rem = ref i in
  for d = 0 to Array.length strides - 1 do
    dst.(d) <- !rem / strides.(d);
    rem := !rem mod strides.(d)
  done

let unary (kind : Op.unary_kind) (s : t) =
  let f = Interp.unary_fn kind in
  let fill dst off lo len =
    s.fill dst off lo len;
    let hi = off + len - 1 in
    match kind with
    | Op.Neg -> for k = off to hi do dst.(k) <- -.dst.(k) done
    | Op.Abs -> for k = off to hi do dst.(k) <- Float.abs dst.(k) done
    | Op.Relu -> for k = off to hi do dst.(k) <- Float.max 0. dst.(k) done
    | Op.Rcp -> for k = off to hi do dst.(k) <- 1. /. dst.(k) done
    | Op.Exp -> for k = off to hi do dst.(k) <- Stdlib.exp dst.(k) done
    | Op.Log -> for k = off to hi do dst.(k) <- Stdlib.log dst.(k) done
    | Op.Tanh -> for k = off to hi do dst.(k) <- Stdlib.tanh dst.(k) done
    | Op.Sigmoid ->
        for k = off to hi do
          dst.(k) <- 1. /. (1. +. Stdlib.exp (-.dst.(k)))
        done
    | Op.Sqrt -> for k = off to hi do dst.(k) <- Stdlib.sqrt dst.(k) done
    | Op.Rsqrt ->
        for k = off to hi do dst.(k) <- 1. /. Stdlib.sqrt dst.(k) done
    | Op.Sign | Op.Erf -> for k = off to hi do dst.(k) <- f dst.(k) done
  in
  computed ~fill ~slabs:s.slabs (fun i -> f (s.get i))

let binary (kind : Op.binary_kind) (a : t) (b : t) elems =
  let f = Interp.binary_fn kind in
  let writer () =
    let sc = scratch elems in
    fun dst off lo len ->
      a.fill dst off lo len;
      b.fill sc 0 lo len;
      let hi = off + len - 1 in
      match kind with
      | Op.Add -> for k = off to hi do dst.(k) <- dst.(k) +. sc.(k - off) done
      | Op.Sub -> for k = off to hi do dst.(k) <- dst.(k) -. sc.(k - off) done
      | Op.Mul -> for k = off to hi do dst.(k) <- dst.(k) *. sc.(k - off) done
      | Op.Div -> for k = off to hi do dst.(k) <- dst.(k) /. sc.(k - off) done
      | Op.Max ->
          for k = off to hi do dst.(k) <- Float.max dst.(k) sc.(k - off) done
      | Op.Min ->
          for k = off to hi do dst.(k) <- Float.min dst.(k) sc.(k - off) done
      | Op.Pow -> for k = off to hi do dst.(k) <- dst.(k) ** sc.(k - off) done
      | Op.Lt ->
          for k = off to hi do
            dst.(k) <- (if dst.(k) < sc.(k - off) then 1. else 0.)
          done
      | Op.Gt ->
          for k = off to hi do
            dst.(k) <- (if dst.(k) > sc.(k - off) then 1. else 0.)
          done
      | Op.Eq ->
          for k = off to hi do
            dst.(k) <- (if dst.(k) = sc.(k - off) then 1. else 0.)
          done
  in
  computed
    ?fill:(if disjoint a b then Some (writer ()) else None)
    ~slabs:(reach [ a; b ])
    (fun i -> f (a.get i) (b.get i))

let compile (g : Graph.t) (nd : Graph.node) ~(operand : Op.node_id -> t) : t =
  let out_shape = nd.shape in
  let elems = Shape.num_elements out_shape in
  let shape_of id = Graph.shape g id in
  match nd.op with
  | Op.Parameter { name } -> unsupported "parameter %s has no element formula" name
  | Op.Constant { value } ->
      computed ~slabs:[]
        ~fill:(fun dst off _ len -> Array.fill dst off len value)
        (fun _ -> value)
  | Op.Iota { axis } ->
      computed ~slabs:[] (fun i ->
          float_of_int (Shape.multi_index out_shape i).(axis))
  | Op.Unary { kind; input } -> unary kind (operand input)
  | Op.Binary { kind; lhs; rhs } ->
      binary kind (operand lhs) (operand rhs) elems
  | Op.Select { pred; on_true; on_false } ->
      let p = operand pred and t = operand on_true and f = operand on_false in
      (* both branches are pure, so evaluating the unpicked one is
         invisible unless it reads a slab *)
      let writer () =
        let ps = scratch elems and fs = scratch elems in
        fun dst off lo len ->
          p.fill ps 0 lo len;
          t.fill dst off lo len;
          f.fill fs 0 lo len;
          for k = 0 to len - 1 do
            if ps.(k) = 0. then dst.(off + k) <- fs.(k)
          done
      in
      computed
        ?fill:(if t.slabs = [] && f.slabs = [] then Some (writer ()) else None)
        ~slabs:(reach [ p; t; f ])
        (fun i -> if p.get i <> 0. then t.get i else f.get i)
  | Op.Broadcast { input; dims } ->
      (* same stride table as Interp: output axis dims.(a) advances the
         input by the input's stride of axis a, replicated axes by 0 *)
      let s = operand input in
      let rank = Shape.rank out_shape in
      let out_strides = Shape.strides out_shape in
      let in_strides = Shape.strides (shape_of input) in
      let bstride = Array.make rank 0 in
      Array.iteri (fun a d -> bstride.(d) <- in_strides.(a)) dims;
      (* axes after the last one that moves the input add nothing *)
      let depth = ref 0 in
      Array.iteri (fun d st -> if st <> 0 then depth := d + 1) bstride;
      let depth = !depth in
      let source i =
        let rem = ref i and src = ref 0 in
        for d = 0 to depth - 1 do
          src := !src + (!rem / out_strides.(d) * bstride.(d));
          rem := !rem mod out_strides.(d)
        done;
        !src
      in
      let get i = s.get (source i) in
      if rank = 0 then computed ~slabs:s.slabs get
      else
        (* a last-axis run advances the input by one fixed stride:
           replicate one element, copy a contiguous run, or step *)
        let last = Shape.dim out_shape (rank - 1) in
        let step = bstride.(rank - 1) in
        let fill dst off lo len =
          let i = ref lo and hi = lo + len in
          while !i < hi do
            let src = source !i in
            let run = Stdlib.min (hi - !i) (last - (!i mod last)) in
            let o = off + (!i - lo) in
            if step = 0 then Array.fill dst o run (s.get src)
            else if step = 1 then s.fill dst o src run
            else
              for k = 0 to run - 1 do
                dst.(o + k) <- s.get (src + (k * step))
              done;
            i := !i + run
          done
        in
        (* one read per replicated run stands for a run of reads *)
        computed
          ?fill:(if step <> 0 || s.slabs = [] then Some fill else None)
          ~slabs:s.slabs get
  | Op.Reshape { input } ->
      (* row-major linear order is preserved across reshape *)
      operand input
  | Op.Transpose { input; perm } ->
      let s = operand input in
      let out_strides = Shape.strides out_shape in
      let in_strides = Shape.strides (shape_of input) in
      (* out axis oi advances the input linearly by stride of in axis
         perm.(oi): the linear form of Interp's in_idx.(perm.(oi)) <-
         out_idx.(oi) *)
      let tstride =
        Array.mapi (fun oi p -> ignore oi; in_strides.(p)) perm
      in
      computed ~slabs:s.slabs (fun i ->
          let rem = ref i and src = ref 0 in
          for d = 0 to Array.length out_strides - 1 do
            src := !src + (!rem / out_strides.(d) * tstride.(d));
            rem := !rem mod out_strides.(d)
          done;
          s.get !src)
  | Op.Reduce { input; kind; axes } ->
      let s = operand input in
      let in_shape = shape_of input in
      let in_strides = Shape.strides in_shape in
      let in_rank = Shape.rank in_shape in
      let reduced =
        let r = Array.copy axes in
        Array.sort compare r;
        r
      in
      let nred = Array.length reduced in
      let init = Interp.reduce_init kind in
      let mean_n =
        if kind = Op.Mean then
          float_of_int (Shape.elements_along in_shape axes)
        else 1.
      in
      if Shape.axes_are_suffix in_shape axes then begin
        (* a trailing suffix: output j folds the contiguous input range
           [j * row, (j + 1) * row), from storage or tile by tile *)
        let row = Shape.elements_along in_shape axes in
        let sc = scratch row in
        let fold_tile a lo hi acc =
          let acc = ref acc in
          (match kind with
          | Op.Sum | Op.Mean -> for t = lo to hi do acc := !acc +. a.(t) done
          | Op.Max_r -> for t = lo to hi do acc := Float.max !acc a.(t) done
          | Op.Min_r -> for t = lo to hi do acc := Float.min !acc a.(t) done);
          !acc
        in
        let fold j =
          let base = j * row in
          let acc =
            match s.storage with
            | Some data -> fold_tile (data ()) base (base + row - 1) init
            | None ->
                let acc = ref init and c = ref 0 in
                while !c < row do
                  let len = Stdlib.min tile (row - !c) in
                  s.fill sc 0 (base + !c) len;
                  acc := fold_tile sc 0 (len - 1) !acc;
                  c := !c + len
                done;
                !acc
          in
          if kind = Op.Mean then acc /. mean_n else acc
        in
        computed ~slabs:s.slabs fold
      end
      else
        let kept =
          Array.of_list
            (List.filter
               (fun ax -> not (Array.exists (fun a -> a = ax) reduced))
               (List.init in_rank Fun.id))
        in
        let out_strides = Shape.strides out_shape in
        let step = Interp.reduce_step kind in
        let rdims = Array.map (fun ax -> Shape.dim in_shape ax) reduced in
        let rstrides = Array.map (fun ax -> in_strides.(ax)) reduced in
        let rc = Array.make (Stdlib.max 1 nred) 0 in
        computed ~slabs:s.slabs (fun j ->
            (* base input offset from the kept coordinates of output j *)
            let rem = ref j and base = ref 0 in
            Array.iteri
              (fun d ax ->
                base := !base + (!rem / out_strides.(d) * in_strides.(ax));
                rem := !rem mod out_strides.(d))
              kept;
            (* fold contributing inputs in ascending linear order:
               odometer over the reduced axes, most-significant
               (largest-stride) first *)
            Array.fill rc 0 (Stdlib.max 1 nred) 0;
            let acc = ref init in
            let continue_ = ref true in
            while !continue_ do
              let off = ref 0 in
              for d = 0 to nred - 1 do
                off := !off + (rc.(d) * rstrides.(d))
              done;
              acc := step !acc (s.get (!base + !off));
              (* increment the odometer, last axis fastest *)
              let d = ref (nred - 1) in
              let carried = ref true in
              while !carried && !d >= 0 do
                rc.(!d) <- rc.(!d) + 1;
                if rc.(!d) < rdims.(!d) then carried := false
                else begin
                  rc.(!d) <- 0;
                  decr d
                end
              done;
              if !carried then continue_ := false
            done;
            if kind = Op.Mean then !acc /. mean_n else !acc)
  | Op.Concat { inputs; axis } ->
      let srcs = Array.of_list (List.map operand inputs) in
      let shapes = Array.of_list (List.map shape_of inputs) in
      let strides = Array.map Shape.strides shapes in
      let axis_dims = Array.map (fun sh -> Shape.dim sh axis) shapes in
      let out_strides = Shape.strides out_shape in
      let rank = Shape.rank out_shape in
      let idx = Array.make rank 0 in
      computed ~slabs:(reach (Array.to_list srcs)) (fun i ->
          decode out_strides i idx;
          let rec pick seg offset =
            if idx.(axis) < offset + axis_dims.(seg) then begin
              let src = ref 0 in
              for d = 0 to rank - 1 do
                let x = if d = axis then idx.(d) - offset else idx.(d) in
                src := !src + (x * strides.(seg).(d))
              done;
              srcs.(seg).get !src
            end
            else pick (seg + 1) (offset + axis_dims.(seg))
          in
          pick 0 0)
  | Op.Slice { input; starts; stops = _ } ->
      let s = operand input in
      let in_strides = Shape.strides (shape_of input) in
      let out_strides = Shape.strides out_shape in
      let rank = Shape.rank out_shape in
      let idx = Array.make rank 0 in
      computed ~slabs:s.slabs (fun i ->
          decode out_strides i idx;
          let src = ref 0 in
          for d = 0 to rank - 1 do
            src := !src + ((idx.(d) + starts.(d)) * in_strides.(d))
          done;
          s.get !src)
  | Op.Pad { input; low; high = _ } ->
      let s = operand input in
      let in_shape = shape_of input in
      let in_strides = Shape.strides in_shape in
      let out_strides = Shape.strides out_shape in
      let rank = Shape.rank out_shape in
      let idx = Array.make rank 0 in
      computed ~slabs:s.slabs (fun i ->
          decode out_strides i idx;
          let src = ref 0 and inside = ref true in
          for d = 0 to rank - 1 do
            let x = idx.(d) - low.(d) in
            if x < 0 || x >= Shape.dim in_shape d then inside := false
            else src := !src + (x * in_strides.(d))
          done;
          if !inside then s.get !src else 0.)
  | Op.Gather { params; indices } ->
      let p = operand params and idx = operand indices in
      let ps = shape_of params in
      let n = Shape.dim ps 0 in
      let row = Shape.num_elements ps / n in
      let clamp i = Stdlib.max 0 (Stdlib.min (n - 1) i) in
      let get i =
        let r = i / row and off = i mod row in
        let src = clamp (int_of_float (idx.get r)) in
        p.get ((src * row) + off)
      in
      (* one index read per output row run, then a contiguous copy *)
      let fill dst off lo len =
        let i = ref lo and hi = lo + len in
        while !i < hi do
          let r = !i / row and o = !i mod row in
          let run = Stdlib.min (hi - !i) (row - o) in
          let src = clamp (int_of_float (idx.get r)) in
          p.fill dst (off + (!i - lo)) ((src * row) + o) run;
          i := !i + run
        done
      in
      computed
        ?fill:(if idx.slabs = [] then Some fill else None)
        ~slabs:(reach [ p; idx ]) get
  | Op.Scatter_add _ ->
      unsupported "scatter_add %d has no per-output element formula" nd.id
  | Op.Max_pool { input; window; stride } ->
      let x = operand input in
      let in_strides = Shape.strides (shape_of input) in
      let out_strides = Shape.strides out_shape in
      let idx = Array.make 4 0 in
      computed ~slabs:x.slabs (fun i ->
          decode out_strides i idx;
          let nb = idx.(0) and oy = idx.(1) and ox = idx.(2) and cc = idx.(3) in
          let best = ref Float.neg_infinity in
          for wy = 0 to window - 1 do
            for wx = 0 to window - 1 do
              let v =
                x.get
                  ((nb * in_strides.(0))
                  + (((oy * stride) + wy) * in_strides.(1))
                  + (((ox * stride) + wx) * in_strides.(2))
                  + (cc * in_strides.(3)))
              in
              if v > !best then best := v
            done
          done;
          !best)
  | Op.Dot { lhs; rhs } -> (
      let a = operand lhs and b = operand rhs in
      let ashape = shape_of lhs in
      let r = Shape.rank ashape in
      let m = (ashape :> int array).(r - 2)
      and k = (ashape :> int array).(r - 1) in
      let n = (shape_of rhs :> int array).(r - 1) in
      let get l =
        let bt = l / (m * n) in
        let rem = l mod (m * n) in
        let i = rem / n and j = rem mod n in
        let acc = ref 0. in
        for kk = 0 to k - 1 do
          acc :=
            !acc
            +. (a.get ((bt * m * k) + (i * k) + kk)
               *. b.get ((bt * k * n) + (kk * n) + j))
        done;
        !acc
      in
      match (a.storage, b.storage) with
      | Some adata, Some bdata ->
          (* i-k-j over each output-row run: every element still sums kk
             ascending from 0 *)
          let fill dst off lo len =
            let ad = adata () and bd = bdata () in
            let l = ref lo and hi = lo + len in
            while !l < hi do
              let bt = !l / (m * n) in
              let rem = !l mod (m * n) in
              let i = rem / n and j = rem mod n in
              let run = Stdlib.min (hi - !l) (n - j) in
              let o = off + (!l - lo) in
              let arow = (bt * m * k) + (i * k) and bcol = (bt * k * n) + j in
              Array.fill dst o run 0.;
              for kk = 0 to k - 1 do
                let aik = ad.(arow + kk) and brow = bcol + (kk * n) in
                for t = 0 to run - 1 do
                  dst.(o + t) <- dst.(o + t) +. (aik *. bd.(brow + t))
                done
              done;
              l := !l + run
            done
          in
          computed ~fill ~slabs:[] get
      | _ -> computed ~slabs:(reach [ a; b ]) get)
  | Op.Conv2d { input; filter; stride } -> (
      let x = operand input and w = operand filter in
      let xs = shape_of input and ws = shape_of filter in
      let c = Shape.dim xs 3 in
      let kh = Shape.dim ws 0 and kw = Shape.dim ws 1 in
      let in_strides = Shape.strides xs in
      let w_strides = Shape.strides ws in
      let out_strides = Shape.strides out_shape in
      let idx = Array.make 4 0 in
      let get i =
        decode out_strides i idx;
        let nb = idx.(0) and oy = idx.(1) and ox = idx.(2) and oz = idx.(3) in
        let acc = ref 0. in
        for ky = 0 to kh - 1 do
          for kx = 0 to kw - 1 do
            for ci = 0 to c - 1 do
              let iy = (oy * stride) + ky and ix = (ox * stride) + kx in
              acc :=
                !acc
                +. (x.get
                      ((nb * in_strides.(0)) + (iy * in_strides.(1))
                      + (ix * in_strides.(2)) + (ci * in_strides.(3)))
                   *. w.get
                        ((ky * w_strides.(0)) + (kx * w_strides.(1))
                        + (ci * w_strides.(2)) + (oz * w_strides.(3))))
            done
          done
        done;
        !acc
      in
      match (x.storage, w.storage) with
      | Some xdata, Some wdata ->
          (* the output index is decoded once per tile, then stepped *)
          let xs0 = in_strides.(0) and xs1 = in_strides.(1)
          and xs2 = in_strides.(2) and xs3 = in_strides.(3) in
          let ws0 = w_strides.(0) and ws1 = w_strides.(1)
          and ws2 = w_strides.(2) and ws3 = w_strides.(3) in
          let fill dst off lo len =
            let xd = xdata () and wd = wdata () in
            decode out_strides lo idx;
            for t = 0 to len - 1 do
              if t > 0 then begin
                let d = ref 3 in
                idx.(3) <- idx.(3) + 1;
                while !d > 0 && idx.(!d) = Shape.dim out_shape !d do
                  idx.(!d) <- 0;
                  decr d;
                  idx.(!d) <- idx.(!d) + 1
                done
              end;
              let acc = ref 0. in
              for ky = 0 to kh - 1 do
                let xrow = (idx.(0) * xs0) + (((idx.(1) * stride) + ky) * xs1)
                and wrow = (ky * ws0) + (idx.(3) * ws3) in
                for kx = 0 to kw - 1 do
                  let xp = xrow + (((idx.(2) * stride) + kx) * xs2)
                  and wp = wrow + (kx * ws1) in
                  for ci = 0 to c - 1 do
                    acc :=
                      !acc +. (xd.(xp + (ci * xs3)) *. wd.(wp + (ci * ws2)))
                  done
                done
              done;
              dst.(off + t) <- !acc
            done
          in
          computed ~fill ~slabs:[] get
      | _ -> computed ~slabs:(reach [ x; w ]) get)
