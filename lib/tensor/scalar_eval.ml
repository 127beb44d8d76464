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
   case of [Interp.eval_node], so writing the elements of a buffer
   tile by tile is bit-identical to the interpreter's materializing
   evaluation.  The tile writers change only loop structure and index
   arithmetic: per-kind matches are hoisted out of the loops, index
   decoding happens once per last-axis run instead of once per element,
   float intermediates stay unboxed in float arrays, and a dot keeps
   eight output columns in registers across its inner loop.  Max and
   min decide ordered operands by comparison and leave ties, signed
   zeros and NaNs to [Float.max]/[Float.min], which returns the same
   bits as calling those on every element.  Only iota, pad, and dots and
   convolutions over operands not in full storage fill through their
   accessor, element by element.

   Row-constant operands.  [const_run] records the runs over which a
   value is constant: everywhere for a constant, r * q for a broadcast
   that keeps its input's axes leading and copies each element of an
   input with runs of r q times, its operand's for a reshape.  A binary
   op whose operand is constant over the whole tile and reads no slab
   reads that one element through a one-slot fill (unboxed, where [get]
   would box it) and applies it to the other operand's tile, with the
   operands in their order: the same float operations on the same
   values as a tile of copies.

   Slabs.  The fused engine stages some values in per-block slabs that
   count their refills, so every [fill] reads each slab in the order
   [get] over the same elements ascending would: its blocks are loaded
   in the same sequence.  A writer that reads one operand after another
   over a range keeps that order when the operands reach no common slab.
   When they do, it relies on the window period: within each aligned
   window of [period] elements every read of a multi-block slab falls in
   one block, and it is the same block along every path from the value
   to that slab.  The period composes through the ops whose element i
   reads its operands at positions proportional to i - elementwise ops,
   reshapes, broadcasts that keep the input's axes leading, and
   reductions over a trailing suffix of axes - and through every one of
   them element i of any value reads a slab's position i scaled by the
   same ratio, which is why every path lands in the same block.  A
   writer whose operands share a slab fills window by window; the
   engine's loops ([fill_range]) cut their tiles at the period anyway.
   Without a period (0) such an op fills element by element.

   Reductions deserve the one-line proof: [Interp] sweeps all input
   linear indices ascending, dispatching each into its output
   accumulator.  Restricted to a single accumulator that is exactly "its
   contributing input indices, ascending" - and that is the order every
   fold below visits them in (reduced axes ascending, i.e. strides
   descending, lexicographic = ascending linear order).  Over a trailing
   suffix of axes those indices are one contiguous range, folded tile by
   tile.  Dot sums [kk] ascending from +0 for every element whether it
   runs per element or blocked over an output row. *)

open Astitch_ir

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt
let tile = 256

type t = {
  get : int -> float;
  fill : float array -> int -> int -> int -> unit;
  storage : (unit -> float array) option;
  slabs : int list;
  period : int;
  const_run : int;
}

(* --- Window periods ---------------------------------------------------- *)

(* the period of a value that reaches no multi-block slab, or whose one
   window is the whole value *)
let unbounded = max_int

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The period of a value reading two operands at its own index: windows
   that lie in a window of each. *)
let meet p q =
  if p = unbounded then q
  else if q = unbounded then p
  else if p = 0 || q = 0 then 0
  else gcd p q

(* a period of at least the [n] elements is one window *)
let clip n p = if p >= n then unbounded else p

(* the period of a value whose reads of its operands no rule above
   covers *)
let opaque slabs = if slabs = [] then unbounded else 0

(* The length of the tile starting at [lo], ending at most at [hi] and
   not crossing a window of [t]. *)
let chunk t lo hi =
  let len = Int.min tile (hi - lo) in
  if t.period = unbounded || t.period = 0 then len
  else Int.min len (t.period - (lo mod t.period))

let fill_range t dst off lo hi =
  let j = ref lo in
  while !j < hi do
    let len = chunk t !j hi in
    t.fill dst (off + (!j - lo)) !j len;
    j := !j + len
  done

(* --- Constructors ------------------------------------------------------ *)

let storage ~get data =
  {
    get;
    fill = (fun dst off lo len -> Array.blit (data ()) lo dst off len);
    storage = Some data;
    slabs = [];
    period = unbounded;
    const_run = 1;
  }

let reach ts = List.sort_uniq compare (List.concat_map (fun t -> t.slabs) ts)
let disjoint a b = not (List.exists (fun x -> List.mem x b.slabs) a.slabs)

(* A computed value.  Ops without a tile writer, and ops whose writer
   would read some slab in another order than their accessor does, fill
   through the accessor, element by element. *)
let computed ?fill ?(const_run = 1) ~slabs ~period get =
  match fill with
  | Some fill -> { get; fill; storage = None; slabs; period; const_run }
  | None ->
      let fill dst off lo len =
        for k = 0 to len - 1 do
          dst.(off + k) <- get (lo + k)
        done
      in
      { get; fill; storage = None; slabs; period; const_run }

let staged ~id ~block_elems ~total ~(node : t) ~get ~fill =
  (* a refill runs [node] over one block: the block must lie in one of
     its windows for the slab's windows to read one block of each slab
     inside; a one-block slab loads once whatever the read order *)
  let multi = block_elems < total in
  let period =
    if not multi then if node.period = unbounded then unbounded else 0
    else if
      node.period = unbounded
      || (node.period > 0 && node.period mod block_elems = 0)
    then block_elems
    else 0
  in
  {
    get;
    fill;
    storage = None;
    slabs =
      (if multi then List.sort_uniq compare (id :: node.slabs) else node.slabs);
    period;
    const_run = 1;
  }

(* operand tile scratch: one tile, or the whole value when smaller *)
let scratch elems = Array.make (Int.min tile elems) 0.

(* The most operand elements a writer stages at once to gather a
   strided tile from a computed operand; beyond it, per element. *)
let span_cap = 4 * tile

(* Row-major multi-index decode of [i] by [strides] into [dst]; the same
   div/mod walk [Shape.multi_index] performs. *)
let decode strides i dst =
  let rem = ref i in
  for d = 0 to Array.length strides - 1 do
    dst.(d) <- !rem / strides.(d);
    rem := !rem mod strides.(d)
  done

(* [Float.max]/[Float.min] without the library call when the operands
   are ordered and distinct: ties, signed zeros and NaNs still go to it,
   so the result has its bits. *)
let[@inline] fmax x y = if x > y then x else if y > x then y else Float.max x y
let[@inline] fmin x y = if x < y then x else if y < x then y else Float.min x y

(* Fold a.(lo) .. a.(hi) into [acc], ascending. *)
let[@inline] fold (kind : Op.reduce_kind) (a : float array) lo hi acc =
  let acc = ref acc in
  (match kind with
  | Op.Sum | Op.Mean -> for t = lo to hi do acc := !acc +. a.(t) done
  | Op.Max_r -> for t = lo to hi do acc := fmax !acc a.(t) done
  | Op.Min_r -> for t = lo to hi do acc := fmin !acc a.(t) done);
  !acc

(* --- Last-axis runs ---------------------------------------------------- *)

(* A row-major walk over an output's last-axis runs: [row] is the source
   offset of the current row's first element - [origin] plus the
   output multi-index [idx] under the per-output-axis source strides
   [st]. *)
type walk = {
  dims : int array;
  ostrides : int array;
  st : int array;
  origin : int;
  idx : int array;
  mutable row : int;
}

let walker ?(origin = 0) (shape : Shape.t) st =
  {
    dims = (shape :> int array);
    ostrides = Shape.strides shape;
    st;
    origin;
    idx = Array.make (Shape.rank shape) 0;
    row = 0;
  }

(* Position [w] at output element [i]; returns its last-axis index. *)
let walk_to w i =
  let rem = ref i and row = ref w.origin in
  for d = 0 to Array.length w.dims - 2 do
    let x = !rem / w.ostrides.(d) in
    w.idx.(d) <- x;
    row := !row + (x * w.st.(d));
    rem := !rem - (x * w.ostrides.(d))
  done;
  w.row <- !row;
  !rem

(* Advance [w] to the next row. *)
let walk_next w =
  let d = ref (Array.length w.dims - 2) in
  while !d >= 0 do
    let x = w.idx.(!d) + 1 in
    if x < w.dims.(!d) || !d = 0 then begin
      w.idx.(!d) <- x;
      w.row <- w.row + w.st.(!d);
      d := -1
    end
    else begin
      w.idx.(!d) <- 0;
      w.row <- w.row - ((x - 1) * w.st.(!d));
      decr d
    end
  done

(* [each w lo len f] calls [f o src run] for every last-axis run of
   output elements lo .. lo+len-1, in order: [o] is the run's offset
   from [lo], [src] its first element's source offset, under [w]'s
   strides. *)
let each w lo len f =
  let rank = Array.length w.dims in
  let last = w.dims.(rank - 1) and step = w.st.(rank - 1) in
  let col = ref (walk_to w lo) and i = ref 0 in
  while !i < len do
    let run = Int.min (len - !i) (last - !col) in
    f !i (w.row + (!col * step)) run;
    i := !i + run;
    if !i < len then begin
      walk_next w;
      col := 0
    end
  done

(* A span buffer for [gather] from a computed operand of [n] elements:
   none when a slab would see the changed read order. *)
let span_buffer (s : t) n =
  if s.storage = None && s.slabs = [] then Array.make (Int.min n span_cap) 0.
  else [||]

(* [each] specialised to copying from an array, source element e at
   a.(e - shift): short runs cost no closure call *)
let copy_runs w (a : float array) shift (dst : float array) off lo len =
  let rank = Array.length w.dims in
  let last = w.dims.(rank - 1) and step = w.st.(rank - 1) in
  let copy o src run =
    if step = 0 then begin
      let v = a.(src) in
      for t = o to o + run - 1 do
        dst.(t) <- v
      done
    end
    else
      for k = 0 to run - 1 do
        dst.(o + k) <- a.(src + (k * step))
      done
  in
  let col = ref (walk_to w lo) and i = ref 0 in
  while !i < len do
    if !col = 0 && rank >= 2 && len - !i >= last then begin
      (* whole rows left in this plane: their sources [st] apart *)
      let d2 = rank - 2 in
      let rows = Int.min ((len - !i) / last) (w.dims.(d2) - w.idx.(d2)) in
      let st2 = w.st.(d2) in
      for r = 0 to rows - 1 do
        copy (off + !i + (r * last)) (w.row + (r * st2) - shift) last
      done;
      i := !i + (rows * last);
      w.idx.(d2) <- w.idx.(d2) + rows - 1;
      w.row <- w.row + ((rows - 1) * st2)
    end
    else begin
      let run = Int.min (len - !i) (last - !col) in
      copy (off + !i) (w.row + (!col * step) - shift) run;
      i := !i + run
    end;
    if !i < len then begin
      walk_next w;
      col := 0
    end
  done

(* Output elements lo .. lo+len-1 into dst.(off ..), each run reading
   [s] from its source [step] apart ([w]'s last stride): straight from
   storage; from [buf] after staging the span of [s] the tile reads,
   when it fits (and, for contiguous runs, is at most twice the tile);
   otherwise run by run, which reads [s] in the order its elements'
   accessors would. *)
let gather w (s : t) buf dst off lo len =
  let step = w.st.(Array.length w.st - 1) in
  let copy a shift = copy_runs w a shift dst off lo len in
  let by_run () =
    each w lo len (fun o src run ->
        let o = off + o in
        if step = 1 then s.fill dst o src run
        else if step = 0 then begin
          let v = s.get src in
          for t = o to o + run - 1 do
            dst.(t) <- v
          done
        end
        else
          for k = 0 to run - 1 do
            dst.(o + k) <- s.get (src + (k * step))
          done)
  in
  match s.storage with
  | Some data -> copy (data ()) 0
  | None when Array.length buf = 0 -> by_run ()
  | None ->
      let mn = ref max_int and mx = ref (-1) in
      each w lo len (fun _ src run ->
          if src < !mn then mn := src;
          let e = src + ((run - 1) * step) in
          if e > !mx then mx := e);
      let span = !mx - !mn + 1 in
      if span <= Array.length buf && (step <> 1 || span <= 2 * len) then begin
        fill_range s buf 0 !mn (!mx + 1);
        copy buf !mn
      end
      else by_run ()

(* --- Dot ----------------------------------------------------------------- *)

(* Outputs dst.(o) .. dst.(o+run-1) of one dot output row: row [arow] of
   [ad] (k long) against columns [bcol] .. [bcol+run-1] of [bd] (n
   wide).  Eight columns at a time are summed in registers across kk,
   then four, then the rest in i-k-j order; every element still sums kk
   ascending from +0.  A function of its own so the accumulators get the
   registers. *)
let dot_run (ad : float array) (bd : float array) (dst : float array) o arow
    bcol run k n =
  let t = ref 0 in
  while !t + 8 <= run do
    let c0 = ref 0. and c1 = ref 0. and c2 = ref 0. and c3 = ref 0. in
    let c4 = ref 0. and c5 = ref 0. and c6 = ref 0. and c7 = ref 0. in
    let bp = bcol + !t in
    for kk = 0 to k - 1 do
      let aik = ad.(arow + kk) and br = bp + (kk * n) in
      c0 := !c0 +. (aik *. bd.(br));
      c1 := !c1 +. (aik *. bd.(br + 1));
      c2 := !c2 +. (aik *. bd.(br + 2));
      c3 := !c3 +. (aik *. bd.(br + 3));
      c4 := !c4 +. (aik *. bd.(br + 4));
      c5 := !c5 +. (aik *. bd.(br + 5));
      c6 := !c6 +. (aik *. bd.(br + 6));
      c7 := !c7 +. (aik *. bd.(br + 7))
    done;
    let d = o + !t in
    dst.(d) <- !c0;
    dst.(d + 1) <- !c1;
    dst.(d + 2) <- !c2;
    dst.(d + 3) <- !c3;
    dst.(d + 4) <- !c4;
    dst.(d + 5) <- !c5;
    dst.(d + 6) <- !c6;
    dst.(d + 7) <- !c7;
    t := !t + 8
  done;
  if !t + 4 <= run then begin
    let c0 = ref 0. and c1 = ref 0. and c2 = ref 0. and c3 = ref 0. in
    let bp = bcol + !t in
    for kk = 0 to k - 1 do
      let aik = ad.(arow + kk) and br = bp + (kk * n) in
      c0 := !c0 +. (aik *. bd.(br));
      c1 := !c1 +. (aik *. bd.(br + 1));
      c2 := !c2 +. (aik *. bd.(br + 2));
      c3 := !c3 +. (aik *. bd.(br + 3))
    done;
    let d = o + !t in
    dst.(d) <- !c0;
    dst.(d + 1) <- !c1;
    dst.(d + 2) <- !c2;
    dst.(d + 3) <- !c3;
    t := !t + 4
  end;
  let rest = run - !t in
  if rest > 0 then begin
    let d = o + !t and bp = bcol + !t in
    Array.fill dst d rest 0.;
    for kk = 0 to k - 1 do
      let aik = ad.(arow + kk) and br = bp + (kk * n) in
      for u = 0 to rest - 1 do
        dst.(d + u) <- dst.(d + u) +. (aik *. bd.(br + u))
      done
    done
  end

(* One convolution output, or two adjacent output channels when [pair],
   into dst.(d) (and dst.(d+1)): the input window starts at [xp], the
   filter column at [wp].  Under NHWC input and HWIO filter layouts a
   window row's (kx, ci) pairs are contiguous in the input and [z] apart
   in the filter, so the sum runs ky, then kx and ci together as [u],
   ascending - Interp's order. *)
let conv_point (xd : float array) (wd : float array) xp wp kh xs1 ws0 kwc z
    pair (dst : float array) d =
  if pair then begin
    let a0 = ref 0. and a1 = ref 0. in
    for ky = 0 to kh - 1 do
      let xr = xp + (ky * xs1) and wr = wp + (ky * ws0) in
      for u = 0 to kwc - 1 do
        let x = xd.(xr + u) and w = wr + (u * z) in
        a0 := !a0 +. (x *. wd.(w));
        a1 := !a1 +. (x *. wd.(w + 1))
      done
    done;
    dst.(d) <- !a0;
    dst.(d + 1) <- !a1
  end
  else begin
    let acc = ref 0. in
    for ky = 0 to kh - 1 do
      let xr = xp + (ky * xs1) and wr = wp + (ky * ws0) in
      for u = 0 to kwc - 1 do
        acc := !acc +. (xd.(xr + u) *. wd.(wr + (u * z)))
      done
    done;
    dst.(d) <- !acc
  end

(* --- Elementwise -------------------------------------------------------- *)

let unary (kind : Op.unary_kind) (s : t) =
  let f = Interp.unary_fn kind in
  let fill dst off lo len =
    s.fill dst off lo len;
    let hi = off + len - 1 in
    match kind with
    | Op.Neg -> for k = off to hi do dst.(k) <- -.dst.(k) done
    | Op.Abs -> for k = off to hi do dst.(k) <- Float.abs dst.(k) done
    | Op.Sign ->
        for k = off to hi do
          let x = dst.(k) in
          dst.(k) <- (if x > 0. then 1. else if x < 0. then -1. else 0.)
        done
    | Op.Relu -> for k = off to hi do dst.(k) <- fmax 0. dst.(k) done
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
    | Op.Erf -> Interp.erf_tile dst off hi
  in
  computed ~fill ~slabs:s.slabs ~period:s.period (fun i -> f (s.get i))

(* dst.(k) <- dst.(k) op sc.(k - soff) for k in [off, hi] *)
let apply_tile (kind : Op.binary_kind) (dst : float array) off hi
    (sc : float array) soff =
  match kind with
  | Op.Add -> for k = off to hi do dst.(k) <- dst.(k) +. sc.(k - soff) done
  | Op.Sub -> for k = off to hi do dst.(k) <- dst.(k) -. sc.(k - soff) done
  | Op.Mul -> for k = off to hi do dst.(k) <- dst.(k) *. sc.(k - soff) done
  | Op.Div -> for k = off to hi do dst.(k) <- dst.(k) /. sc.(k - soff) done
  | Op.Max -> for k = off to hi do dst.(k) <- fmax dst.(k) sc.(k - soff) done
  | Op.Min -> for k = off to hi do dst.(k) <- fmin dst.(k) sc.(k - soff) done
  | Op.Pow -> for k = off to hi do dst.(k) <- dst.(k) ** sc.(k - soff) done
  | Op.Lt ->
      for k = off to hi do
        dst.(k) <- (if dst.(k) < sc.(k - soff) then 1. else 0.)
      done
  | Op.Gt ->
      for k = off to hi do
        dst.(k) <- (if dst.(k) > sc.(k - soff) then 1. else 0.)
      done
  | Op.Eq ->
      for k = off to hi do
        dst.(k) <- (if dst.(k) = sc.(k - soff) then 1. else 0.)
      done

(* dst.(k) <- dst.(k) op c.(0): the right operand is one value over the
   tile, read from a one-slot array so it stays unboxed *)
let apply_right (kind : Op.binary_kind) (dst : float array) off hi
    (c : float array) =
  let v = c.(0) in
  match kind with
  | Op.Add -> for k = off to hi do dst.(k) <- dst.(k) +. v done
  | Op.Sub -> for k = off to hi do dst.(k) <- dst.(k) -. v done
  | Op.Mul -> for k = off to hi do dst.(k) <- dst.(k) *. v done
  | Op.Div -> for k = off to hi do dst.(k) <- dst.(k) /. v done
  | Op.Max -> for k = off to hi do dst.(k) <- fmax dst.(k) v done
  | Op.Min -> for k = off to hi do dst.(k) <- fmin dst.(k) v done
  | Op.Pow -> for k = off to hi do dst.(k) <- dst.(k) ** v done
  | Op.Lt ->
      for k = off to hi do dst.(k) <- (if dst.(k) < v then 1. else 0.) done
  | Op.Gt ->
      for k = off to hi do dst.(k) <- (if dst.(k) > v then 1. else 0.) done
  | Op.Eq ->
      for k = off to hi do dst.(k) <- (if dst.(k) = v then 1. else 0.) done

(* dst.(k) <- c.(0) op dst.(k): the left operand is one value *)
let apply_left (kind : Op.binary_kind) (dst : float array) off hi
    (c : float array) =
  let v = c.(0) in
  match kind with
  | Op.Add -> for k = off to hi do dst.(k) <- v +. dst.(k) done
  | Op.Sub -> for k = off to hi do dst.(k) <- v -. dst.(k) done
  | Op.Mul -> for k = off to hi do dst.(k) <- v *. dst.(k) done
  | Op.Div -> for k = off to hi do dst.(k) <- v /. dst.(k) done
  | Op.Max -> for k = off to hi do dst.(k) <- fmax v dst.(k) done
  | Op.Min -> for k = off to hi do dst.(k) <- fmin v dst.(k) done
  | Op.Pow -> for k = off to hi do dst.(k) <- v ** dst.(k) done
  | Op.Lt ->
      for k = off to hi do dst.(k) <- (if v < dst.(k) then 1. else 0.) done
  | Op.Gt ->
      for k = off to hi do dst.(k) <- (if v > dst.(k) then 1. else 0.) done
  | Op.Eq ->
      for k = off to hi do dst.(k) <- (if v = dst.(k) then 1. else 0.) done

(* [s] holds one value over elements [lo, lo+len) and reads no slab, so
   one element stands for the tile: reading it alone loads no block *)
let flat (s : t) lo len =
  let r = s.const_run in
  r > 1 && s.slabs = [] && (r = unbounded || lo / r = (lo + len - 1) / r)

let binary (kind : Op.binary_kind) (a : t) (b : t) elems =
  let f = Interp.binary_fn kind in
  let get i = f (a.get i) (b.get i) in
  let slabs = reach [ a; b ] and period = meet a.period b.period in
  let shared = not (disjoint a b) in
  if shared && period = 0 then computed ~slabs ~period get
  else
    let same = a == b in
    let bs = if same then [||] else scratch elems in
    let one = [| 0. |] in
    let apply dst off lo len =
      let hi = off + len - 1 in
      (* a row-constant operand (a broadcast row statistic, a constant)
         is applied as its one element, not as a tile of copies *)
      if flat b lo len then begin
        a.fill dst off lo len;
        b.fill one 0 lo 1;
        apply_right kind dst off hi one
      end
      else if flat a lo len then begin
        b.fill dst off lo len;
        a.fill one 0 lo 1;
        apply_left kind dst off hi one
      end
      else begin
        a.fill dst off lo len;
        (* an operand used twice (x * x) is read once: its second reads
           would hit the blocks the first just loaded *)
        if same then apply_tile kind dst off hi dst 0
        else begin
          b.fill bs 0 lo len;
          apply_tile kind dst off hi bs off
        end
      end
    in
    let fill =
      if (not shared) || period = unbounded then apply
      else fun dst off lo len ->
        (* both operands read their common slabs one window at a time *)
        if (lo mod period) + len <= period then apply dst off lo len
        else begin
          let j = ref lo and hi = lo + len in
          while !j < hi do
            let l = Int.min (hi - !j) (period - (!j mod period)) in
            apply dst (off + (!j - lo)) !j l;
            j := !j + l
          done
        end
    in
    computed ~fill ~slabs ~period get

(* --- Op compilation ----------------------------------------------------- *)

let compile (g : Graph.t) (nd : Graph.node) ~(operand : Op.node_id -> t) : t =
  let out_shape = nd.shape in
  let elems = Shape.num_elements out_shape in
  let rank = Shape.rank out_shape in
  let shape_of id = Graph.shape g id in
  match nd.op with
  | Op.Parameter { name } -> unsupported "parameter %s has no element formula" name
  | Op.Constant { value } ->
      computed ~const_run:unbounded ~slabs:[] ~period:unbounded
        ~fill:(fun dst off _ len -> Array.fill dst off len value)
        (fun _ -> value)
  | Op.Iota { axis } ->
      computed ~slabs:[] ~period:unbounded (fun i ->
          float_of_int (Shape.multi_index out_shape i).(axis))
  | Op.Unary { kind; input } -> unary kind (operand input)
  | Op.Binary { kind; lhs; rhs } ->
      binary kind (operand lhs) (operand rhs) elems
  | Op.Select { pred; on_true; on_false } ->
      let p = operand pred and t = operand on_true and f = operand on_false in
      let slabs = reach [ p; t; f ]
      and period = meet p.period (meet t.period f.period) in
      let get i = if p.get i <> 0. then t.get i else f.get i in
      (* both branches are pure, so evaluating the unpicked one is
         invisible unless it reads a slab: it would stage blocks the
         per-element reads never touch *)
      if t.slabs = [] && f.slabs = [] then
        let ps = scratch elems and fs = scratch elems in
        let fill dst off lo len =
          p.fill ps 0 lo len;
          t.fill dst off lo len;
          f.fill fs 0 lo len;
          for k = 0 to len - 1 do
            if ps.(k) = 0. then dst.(off + k) <- fs.(k)
          done
        in
        computed ~fill ~slabs ~period get
      else computed ~slabs ~period get
  | Op.Broadcast { input; dims } ->
      (* same stride table as Interp: output axis dims.(a) advances the
         input by the input's stride of axis a, replicated axes by 0 *)
      let s = operand input in
      let in_shape = shape_of input in
      let out_strides = Shape.strides out_shape in
      let in_strides = Shape.strides in_shape in
      let bstride = Array.make rank 0 in
      Array.iteri (fun a d -> bstride.(d) <- in_strides.(a)) dims;
      (* axes after the last one that moves the input add nothing *)
      let depth = ref 0 in
      Array.iteri (fun d st -> if st <> 0 then depth := d + 1) bstride;
      let depth = !depth in
      let get i =
        let rem = ref i and src = ref 0 in
        for d = 0 to depth - 1 do
          src := !src + (!rem / out_strides.(d) * bstride.(d));
          rem := !rem mod out_strides.(d)
        done;
        s.get !src
      in
      (* the input's axes leading: output i reads input i / q *)
      let leading =
        let ok = ref true in
        Array.iteri (fun a d -> if a <> d then ok := false) dims;
        !ok
      in
      let n_in = Shape.num_elements in_shape in
      let q = if n_in = 0 then 1 else elems / n_in in
      let slabs = s.slabs in
      let period =
        if s.slabs = [] then unbounded
        else if leading && s.period > 0 then
          if s.period = unbounded then unbounded
          else clip elems (s.period * q)
        else 0
      in
      (* output i is input i / q: a run of r equal inputs is a run of
         r * q equal outputs *)
      let const_run =
        if not leading then 1
        else if s.const_run = unbounded then unbounded
        else s.const_run * q
      in
      let computed = computed ~const_run in
      (* one read stands for the run of reads it replicates: the same
         blocks only when one element reads one block of each slab *)
      let replicable = s.slabs = [] || s.period > 0 in
      if rank = 0 || elems = 0 then computed ~slabs ~period get
      else if leading && replicable then
        if q = 1 then computed ~fill:s.fill ~slabs ~period get
        else
          (* the tile's sources are one contiguous input range: fill it
             once, then replicate each source over its q outputs *)
          let sc = scratch n_in in
          let fill dst off lo len =
            let first = lo / q and last = (lo + len - 1) / q in
            s.fill sc 0 first (last - first + 1);
            let o = ref off in
            for k = 0 to last - first do
              let v = sc.(k) in
              let stop = off + (Int.min (lo + len) ((first + k + 1) * q) - lo) in
              for t = !o to stop - 1 do
                dst.(t) <- v
              done;
              o := stop
            done
          in
          computed ~fill ~slabs ~period get
      else
        (* a last-axis run advances the input by one fixed stride:
           replicate one element, copy a contiguous run, or step *)
        let w = walker out_shape bstride in
        let buf = span_buffer s n_in in
        computed
          ?fill:
            (if bstride.(rank - 1) <> 0 || replicable then
               Some (gather w s buf)
             else None)
          ~slabs ~period get
  | Op.Reshape { input } ->
      (* row-major linear order is preserved across reshape *)
      operand input
  | Op.Transpose { input; perm } ->
      let s = operand input in
      let in_strides = Shape.strides (shape_of input) in
      (* out axis oi advances the input linearly by stride of in axis
         perm.(oi): the linear form of Interp's in_idx.(perm.(oi)) <-
         out_idx.(oi) *)
      let tstride = Array.map (fun p -> in_strides.(p)) perm in
      let out_strides = Shape.strides out_shape in
      let get i =
        let rem = ref i and src = ref 0 in
        for d = 0 to Array.length out_strides - 1 do
          src := !src + (!rem / out_strides.(d) * tstride.(d));
          rem := !rem mod out_strides.(d)
        done;
        s.get !src
      in
      let slabs = s.slabs and period = opaque s.slabs in
      if rank = 0 || elems = 0 then computed ~slabs ~period get
      else
        (* contiguous input runs when the last axis stays last, strided
           ones otherwise *)
        let buf = span_buffer s (Shape.num_elements (shape_of input)) in
        computed
          ~fill:(gather (walker out_shape tstride) s buf)
          ~slabs ~period get
  | Op.Reduce { input; kind; axes } ->
      let s = operand input in
      let in_shape = shape_of input in
      let in_strides = Shape.strides in_shape in
      let in_rank = Shape.rank in_shape in
      let n_in = Shape.num_elements in_shape in
      let reduced =
        let r = Array.copy axes in
        Array.sort compare r;
        r
      in
      let init = Interp.reduce_init kind in
      let mean_n =
        if kind = Op.Mean then
          float_of_int (Shape.elements_along in_shape axes)
        else 1.
      in
      let finish acc = if kind = Op.Mean then acc /. mean_n else acc in
      let slabs = s.slabs in
      let row = Shape.elements_along in_shape axes in
      if Shape.axes_are_suffix in_shape axes && row > 0 then begin
        (* a trailing suffix: output j folds the contiguous input range
           [j * row, (j + 1) * row), from storage or a tile at a time;
           a tile of operand elements may hold many short rows *)
        let period =
          if s.period = unbounded then unbounded
          else if s.period = 0 || s.period mod row <> 0 then 0
          else clip elems (s.period / row)
        in
        let sc = scratch n_in in
        let fill dst off lo len =
          match s.storage with
          | Some data ->
              let a = data () in
              for j = lo to lo + len - 1 do
                let base = j * row in
                dst.(off + (j - lo)) <- finish (fold kind a base (base + row - 1) init)
              done
          | None ->
              let pos = ref (lo * row) and stop = (lo + len) * row in
              let o = ref off and acc = ref init and col = ref 0 in
              while !pos < stop do
                let clen = chunk s !pos stop in
                s.fill sc 0 !pos clen;
                let k = ref 0 in
                while !k < clen do
                  let take = Int.min (clen - !k) (row - !col) in
                  acc := fold kind sc !k (!k + take - 1) !acc;
                  k := !k + take;
                  col := !col + take;
                  if !col = row then begin
                    dst.(!o) <- finish !acc;
                    incr o;
                    acc := init;
                    col := 0
                  end
                done;
                pos := !pos + clen
              done
        in
        let one = [| 0. |] in
        computed ~fill ~slabs ~period (fun j ->
            fill one 0 j 1;
            one.(0))
      end
      else
        (* kept axes give each output's base input offset; the reduced
           axes' offsets, ascending, are tabulated once *)
        let kept =
          Array.of_list
            (List.filter
               (fun ax -> not (Array.exists (fun a -> a = ax) reduced))
               (List.init in_rank Fun.id))
        in
        let out_strides = Shape.strides out_shape in
        let base j =
          let rem = ref j and b = ref 0 in
          Array.iteri
            (fun d ax ->
              b := !b + (!rem / out_strides.(d) * in_strides.(ax));
              rem := !rem mod out_strides.(d))
            kept;
          !b
        in
        let roffs =
          Array.fold_left
            (fun offs ax ->
              let d = Shape.dim in_shape ax and st = in_strides.(ax) in
              Array.concat
                (Array.to_list
                   (Array.map (fun o -> Array.init d (fun x -> o + (x * st))) offs)))
            [| 0 |] reduced
        in
        let span =
          if Array.length roffs = 0 then 0 else roffs.(Array.length roffs - 1) + 1
        in
        let period = opaque slabs in
        let step = Interp.reduce_step kind in
        let get j =
          let b = base j in
          let acc = ref init in
          Array.iter (fun o -> acc := step !acc (s.get (b + o))) roffs;
          finish !acc
        in
        (* outputs [lo, hi) from [a], where input b + o sits at
           a.(b + o - shift) *)
        let fold_outputs dst off lo hi (a : float array) shift =
          for j = lo to hi - 1 do
            let b = base j - shift in
            let acc = ref init in
            (match kind with
            | Op.Sum | Op.Mean ->
                for r = 0 to Array.length roffs - 1 do
                  acc := !acc +. a.(b + roffs.(r))
                done
            | Op.Max_r ->
                for r = 0 to Array.length roffs - 1 do
                  acc := fmax !acc a.(b + roffs.(r))
                done
            | Op.Min_r ->
                for r = 0 to Array.length roffs - 1 do
                  acc := fmin !acc a.(b + roffs.(r))
                done);
            dst.(off + (j - lo)) <- finish !acc
          done
        in
        (match s.storage with
        | Some data ->
            computed ~slabs ~period
              ~fill:(fun dst off lo len ->
                fold_outputs dst off lo (lo + len) (data ()) 0)
              get
        | None when slabs = [] && span <= span_cap ->
            (* each group of outputs reads one input span of at most
               [span_cap] elements (bases ascend with j): stage it *)
            let buf = Array.make (Int.min n_in span_cap) 0. in
            let fill dst off lo len =
              let hi = lo + len in
              let j = ref lo in
              while !j < hi do
                let b0 = base !j in
                let e = ref (!j + 1) in
                while !e < hi && base !e + span - b0 <= Array.length buf do
                  incr e
                done;
                fill_range s buf 0 b0 (base (!e - 1) + span);
                fold_outputs dst (off + (!j - lo)) !j !e buf b0;
                j := !e
              done
            in
            computed ~fill ~slabs ~period get
        | None -> computed ~slabs ~period get)
  | Op.Concat { inputs; axis } ->
      let srcs = Array.of_list (List.map operand inputs) in
      let shapes = Array.of_list (List.map shape_of inputs) in
      let strides = Array.map Shape.strides shapes in
      let axis_dims = Array.map (fun sh -> Shape.dim sh axis) shapes in
      let out_strides = Shape.strides out_shape in
      let idx = Array.make rank 0 in
      let get i =
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
        pick 0 0
      in
      (* per outer index, the output row of [axis] and the axes after it
         is each input's row in turn: contiguous copies, in output order *)
      let inner = out_strides.(axis) in
      let orow = Shape.dim out_shape axis * inner in
      let seg_len = Array.map (fun d -> d * inner) axis_dims in
      let seg_start = Array.make (Array.length srcs + 1) 0 in
      Array.iteri (fun k l -> seg_start.(k + 1) <- seg_start.(k) + l) seg_len;
      let fill dst off lo len =
        let i = ref lo and hi = lo + len in
        while !i < hi do
          let o = !i / orow and r = !i mod orow in
          let seg = ref 0 in
          while r >= seg_start.(!seg + 1) do
            incr seg
          done;
          let pos = r - seg_start.(!seg) in
          let run = Int.min (hi - !i) (seg_len.(!seg) - pos) in
          srcs.(!seg).fill dst (off + (!i - lo)) ((o * seg_len.(!seg)) + pos) run;
          i := !i + run
        done
      in
      let slabs = reach (Array.to_list srcs) in
      computed
        ?fill:(if elems > 0 then Some fill else None)
        ~slabs ~period:(opaque slabs) get
  | Op.Slice { input; starts; stops = _ } ->
      let s = operand input in
      let in_strides = Shape.strides (shape_of input) in
      let out_strides = Shape.strides out_shape in
      let idx = Array.make rank 0 in
      let get i =
        decode out_strides i idx;
        let src = ref 0 in
        for d = 0 to rank - 1 do
          src := !src + ((idx.(d) + starts.(d)) * in_strides.(d))
        done;
        s.get !src
      in
      let slabs = s.slabs and period = opaque s.slabs in
      if rank = 0 || elems = 0 then computed ~slabs ~period get
      else
        (* every last-axis run is a contiguous input run *)
        let origin = ref 0 in
        Array.iteri (fun d x -> origin := !origin + (x * in_strides.(d))) starts;
        computed
          ~fill:(gather (walker ~origin:!origin out_shape in_strides) s [||])
          ~slabs ~period get
  | Op.Pad { input; low; high = _ } ->
      let s = operand input in
      let in_shape = shape_of input in
      let in_strides = Shape.strides in_shape in
      let out_strides = Shape.strides out_shape in
      let idx = Array.make rank 0 in
      computed ~slabs:s.slabs ~period:(opaque s.slabs) (fun i ->
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
      let clamp i = Int.max 0 (Int.min (n - 1) i) in
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
          let run = Int.min (hi - !i) (row - o) in
          let src = clamp (int_of_float (idx.get r)) in
          p.fill dst (off + (!i - lo)) ((src * row) + o) run;
          i := !i + run
        done
      in
      let slabs = reach [ p; idx ] in
      computed
        ?fill:(if idx.slabs = [] then Some fill else None)
        ~slabs ~period:(opaque slabs) get
  | Op.Scatter_add _ ->
      unsupported "scatter_add %d has no per-output element formula" nd.id
  | Op.Max_pool { input; window; stride } ->
      let x = operand input in
      let xs = shape_of input in
      let in_strides = Shape.strides xs in
      let out_strides = Shape.strides out_shape in
      let idx = Array.make 4 0 in
      let get i =
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
        !best
      in
      (* outputs in row-major order step (nb, oy, ox, cc); a run of
         them within one image reads one contiguous input span, from
         storage or staged when no slab sees the changed read order *)
      let oh = Shape.dim out_shape 1
      and ow = Shape.dim out_shape 2
      and c = Shape.dim out_shape 3 in
      let xs0 = in_strides.(0) and xs1 = in_strides.(1)
      and xs2 = in_strides.(2) in
      let orow = ow * c in
      let pool (dst : float array) o (a : float array) shift i n =
        (* outputs i .. i+n-1; input element e at a.(e - shift) *)
        let r = i / orow and p = i mod orow in
        let img = ref ((r / oh * xs0) - shift) and oy = ref (r mod oh) in
        let ox = ref (p / c) and cc = ref (p mod c) in
        for t = o to o + n - 1 do
          let corner =
            !img + (!oy * stride * xs1) + (!ox * stride * xs2) + !cc
          in
          let best = ref Float.neg_infinity in
          for wy = 0 to window - 1 do
            for wx = 0 to window - 1 do
              let v = a.(corner + (wy * xs1) + (wx * xs2)) in
              if v > !best then best := v
            done
          done;
          dst.(t) <- !best;
          incr cc;
          if !cc = c then begin
            cc := 0;
            incr ox;
            if !ox = ow then begin
              ox := 0;
              incr oy;
              if !oy = oh then begin
                oy := 0;
                img := !img + xs0
              end
            end
          end
        done
      in
      (* outputs i .. e-1 of one image read input elements
         [lowest i, beyond (e - 1)) *)
      let lowest j =
        let r = j / orow in
        (r / oh * xs0) + (r mod oh * stride * xs1) + (j mod orow / c * stride * xs2)
      in
      let beyond j = lowest j + ((window - 1) * (xs1 + xs2)) + c in
      let slabs = x.slabs and period = opaque x.slabs in
      if elems = 0 then computed ~slabs ~period get
      else (
        match x.storage with
        | Some data ->
            computed ~slabs ~period
              ~fill:(fun dst off lo len -> pool dst off (data ()) 0 lo len)
              get
        | None when slabs = [] ->
            let buf =
              Array.make (Int.min (Shape.num_elements xs) (16 * span_cap)) 0.
            in
            let fill dst off lo len =
              let i = ref lo and hi = lo + len in
              while !i < hi do
                (* the rest of the image if its span fits, else one row *)
                let image = Int.min hi ((!i / (oh * orow) + 1) * oh * orow) in
                let e =
                  if beyond (image - 1) - lowest !i <= Array.length buf then image
                  else Int.min image ((!i / orow + 1) * orow)
                in
                let b0 = lowest !i and b1 = beyond (e - 1) in
                let o = off + (!i - lo) in
                if b1 - b0 <= Array.length buf then begin
                  fill_range x buf 0 b0 b1;
                  pool dst o buf b0 !i (e - !i)
                end
                else
                  for j = !i to e - 1 do
                    dst.(o + (j - !i)) <- get j
                  done;
                i := e
              done
            in
            computed ~fill ~slabs ~period get
        | None -> computed ~slabs ~period get)
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
          let fill dst off lo len =
            let ad = adata () and bd = bdata () in
            let l = ref lo and hi = lo + len in
            while !l < hi do
              let bt = !l / (m * n) in
              let rem = !l mod (m * n) in
              let i = rem / n and j = rem mod n in
              let run = Int.min (hi - !l) (n - j) in
              dot_run ad bd dst
                (off + (!l - lo))
                ((bt * m * k) + (i * k))
                ((bt * k * n) + j)
                run k n;
              l := !l + run
            done
          in
          computed ~fill ~slabs:[] ~period:unbounded get
      | _ ->
          let slabs = reach [ a; b ] in
          computed ~slabs ~period:(opaque slabs) get)
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
          (* the output index is decoded once per tile, then stepped;
             channel pairs share their input reads *)
          let z = Shape.dim out_shape 3 in
          let xs0 = in_strides.(0) and xs1 = in_strides.(1)
          and xs2 = in_strides.(2) and ws0 = w_strides.(0) in
          let fill dst off lo len =
            let xd = xdata () and wd = wdata () in
            decode out_strides lo idx;
            let t = ref 0 in
            while !t < len do
              let xp =
                (idx.(0) * xs0) + (idx.(1) * stride * xs1)
                + (idx.(2) * stride * xs2)
              in
              let pair = idx.(3) + 1 < z && !t + 1 < len in
              conv_point xd wd xp idx.(3) kh xs1 ws0 (kw * c) z pair dst
                (off + !t);
              let step = if pair then 2 else 1 in
              t := !t + step;
              idx.(3) <- idx.(3) + step;
              let d = ref 3 in
              while !d > 0 && idx.(!d) = Shape.dim out_shape !d do
                idx.(!d) <- 0;
                decr d;
                idx.(!d) <- idx.(!d) + 1
              done
            done
          in
          computed ~fill ~slabs:[] ~period:unbounded get
      | _ ->
          let slabs = reach [ x; w ] in
          computed ~slabs ~period:(opaque slabs) get)
