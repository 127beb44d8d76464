(* The one byte format of ops and graphs.

   Little-endian 64-bit words for every integer (element counts and byte
   totals overflow 32 bits), a float as its IEEE bit pattern (so constants
   round-trip exactly), a tag byte per variant constructor, kind and
   dtype, length-prefixed strings and sequences.  The op writer takes its
   operands through a callback, so each user writes node references its
   own way around one encoding of every constructor and attribute: the
   plan codec writes raw node ids, the fingerprint canonical ids, the
   scope key group positions or external records. *)

(* --- Words ---------------------------------------------------------------- *)

let w_i b n = Buffer.add_int64_le b (Int64.of_int n)
let w_f b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let w_u8 b n = Buffer.add_char b (Char.unsafe_chr (n land 0xff))
let w_bool b x = w_u8 b (Bool.to_int x)

let w_s b s =
  w_i b (String.length s);
  Buffer.add_string b s

let w_arr b wf a =
  w_i b (Array.length a);
  Array.iter (wf b) a

let w_list b wf l =
  w_i b (List.length l);
  List.iter (wf b) l

let w_ints b a =
  w_i b (Array.length a);
  for i = 0 to Array.length a - 1 do
    w_i b a.(i)
  done

(* --- Reader --------------------------------------------------------------- *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

type reader = { src : string; limit : int; mutable pos : int }

let reader src ~pos ~limit = { src; limit; pos }
let pos r = r.pos

(* Inside a length-checked region an overrun means the bytes lie about
   their own structure. *)
let need r n = if n > r.limit - r.pos then malformed "payload exhausted mid-field"

let r_i r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  Int64.to_int v

let r_f r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits v

let r_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_s r =
  let n = r_i r in
  if n < 0 then malformed "negative string length %d" n;
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* A sequence length: every element takes at least one byte. *)
let r_count r =
  let n = r_i r in
  if n < 0 || n > r.limit - r.pos then malformed "sequence length %d" n;
  n

let r_arr r rf =
  let n = r_count r in
  Array.init n (fun _ -> rf r)

let r_list r rf =
  let n = r_count r in
  List.init n (fun _ -> rf r)

let r_ints r = r_arr r r_i

(* --- Tags ----------------------------------------------------------------- *)

let op_tag : Op.t -> int = function
  | Parameter _ -> 0 | Constant _ -> 1 | Iota _ -> 2 | Unary _ -> 3
  | Binary _ -> 4 | Broadcast _ -> 5 | Reduce _ -> 6 | Reshape _ -> 7
  | Transpose _ -> 8 | Select _ -> 9 | Concat _ -> 10 | Slice _ -> 11
  | Pad _ -> 12 | Gather _ -> 13 | Scatter_add _ -> 14 | Max_pool _ -> 15
  | Dot _ -> 16 | Conv2d _ -> 17

(* Each kind list is in tag order: [kinds.(tag k) = k]. *)
let unary_tag : Op.unary_kind -> int = function
  | Neg -> 0 | Abs -> 1 | Sign -> 2 | Relu -> 3 | Rcp -> 4 | Exp -> 5
  | Log -> 6 | Tanh -> 7 | Sigmoid -> 8 | Sqrt -> 9 | Rsqrt -> 10 | Erf -> 11

let unary_kinds : Op.unary_kind array =
  [| Neg; Abs; Sign; Relu; Rcp; Exp; Log; Tanh; Sigmoid; Sqrt; Rsqrt; Erf |]

let binary_tag : Op.binary_kind -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Max -> 4 | Min -> 5
  | Pow -> 6 | Lt -> 7 | Gt -> 8 | Eq -> 9

let binary_kinds : Op.binary_kind array =
  [| Add; Sub; Mul; Div; Max; Min; Pow; Lt; Gt; Eq |]

let reduce_tag : Op.reduce_kind -> int = function
  | Sum -> 0 | Max_r -> 1 | Min_r -> 2 | Mean -> 3

let reduce_kinds : Op.reduce_kind array = [| Sum; Max_r; Min_r; Mean |]

let dtype_tag : Dtype.t -> int = function
  | F32 -> 0 | F16 -> 1 | I32 -> 2 | Pred -> 3

let dtypes : Dtype.t array = [| F32; F16; I32; Pred |]

let of_tag what kinds t =
  if t >= 0 && t < Array.length kinds then kinds.(t) else malformed "%s tag %d" what t

let unary_of_tag = of_tag "unary kind" unary_kinds
let binary_of_tag = of_tag "binary kind" binary_kinds
let reduce_of_tag = of_tag "reduce kind" reduce_kinds
let dtype_of_tag = of_tag "dtype" dtypes

(* --- Ops ------------------------------------------------------------------ *)

let write_op b ~operand : Op.t -> unit = function
  | Parameter { name } ->
      w_u8 b 0;
      w_s b name
  | Constant { value } ->
      w_u8 b 1;
      w_f b value
  | Iota { axis } ->
      w_u8 b 2;
      w_i b axis
  | Unary { kind; input } ->
      w_u8 b 3;
      w_u8 b (unary_tag kind);
      operand b input
  | Binary { kind; lhs; rhs } ->
      w_u8 b 4;
      w_u8 b (binary_tag kind);
      operand b lhs;
      operand b rhs
  | Broadcast { input; dims } ->
      w_u8 b 5;
      operand b input;
      w_ints b dims
  | Reduce { input; kind; axes } ->
      w_u8 b 6;
      operand b input;
      w_u8 b (reduce_tag kind);
      w_ints b axes
  | Reshape { input } ->
      w_u8 b 7;
      operand b input
  | Transpose { input; perm } ->
      w_u8 b 8;
      operand b input;
      w_ints b perm
  | Select { pred; on_true; on_false } ->
      w_u8 b 9;
      operand b pred;
      operand b on_true;
      operand b on_false
  | Concat { inputs; axis } ->
      w_u8 b 10;
      w_list b operand inputs;
      w_i b axis
  | Slice { input; starts; stops } ->
      w_u8 b 11;
      operand b input;
      w_ints b starts;
      w_ints b stops
  | Pad { input; low; high } ->
      w_u8 b 12;
      operand b input;
      w_ints b low;
      w_ints b high
  | Gather { params; indices } ->
      w_u8 b 13;
      operand b params;
      operand b indices
  | Scatter_add { indices; updates; rows } ->
      w_u8 b 14;
      operand b indices;
      operand b updates;
      w_i b rows
  | Max_pool { input; window; stride } ->
      w_u8 b 15;
      operand b input;
      w_i b window;
      w_i b stride
  | Dot { lhs; rhs } ->
      w_u8 b 16;
      operand b lhs;
      operand b rhs
  | Conv2d { input; filter; stride } ->
      w_u8 b 17;
      operand b input;
      operand b filter;
      w_i b stride

let read_op r : Op.t =
  match r_u8 r with
  | 0 -> Parameter { name = r_s r }
  | 1 -> Constant { value = r_f r }
  | 2 -> Iota { axis = r_i r }
  | 3 ->
      let kind = unary_of_tag (r_u8 r) in
      Unary { kind; input = r_i r }
  | 4 ->
      let kind = binary_of_tag (r_u8 r) in
      let lhs = r_i r in
      Binary { kind; lhs; rhs = r_i r }
  | 5 ->
      let input = r_i r in
      Broadcast { input; dims = r_ints r }
  | 6 ->
      let input = r_i r in
      let kind = reduce_of_tag (r_u8 r) in
      Reduce { input; kind; axes = r_ints r }
  | 7 -> Reshape { input = r_i r }
  | 8 ->
      let input = r_i r in
      Transpose { input; perm = r_ints r }
  | 9 ->
      let pred = r_i r in
      let on_true = r_i r in
      Select { pred; on_true; on_false = r_i r }
  | 10 ->
      let inputs = r_list r r_i in
      Concat { inputs; axis = r_i r }
  | 11 ->
      let input = r_i r in
      let starts = r_ints r in
      Slice { input; starts; stops = r_ints r }
  | 12 ->
      let input = r_i r in
      let low = r_ints r in
      Pad { input; low; high = r_ints r }
  | 13 ->
      let params = r_i r in
      Gather { params; indices = r_i r }
  | 14 ->
      let indices = r_i r in
      let updates = r_i r in
      Scatter_add { indices; updates; rows = r_i r }
  | 15 ->
      let input = r_i r in
      let window = r_i r in
      Max_pool { input; window; stride = r_i r }
  | 16 ->
      let lhs = r_i r in
      Dot { lhs; rhs = r_i r }
  | 17 ->
      let input = r_i r in
      let filter = r_i r in
      Conv2d { input; filter; stride = r_i r }
  | t -> malformed "op tag %d" t

(* --- Graphs --------------------------------------------------------------- *)

let write_node b ~operand (nd : Graph.node) =
  write_op b ~operand nd.op;
  w_ints b nd.shape;
  w_u8 b (dtype_tag nd.dtype)

let write_graph b g =
  w_i b (Graph.num_nodes g);
  Graph.iter_nodes (write_node b ~operand:w_i) g;
  w_list b w_i (Graph.outputs g)

let read_graph r =
  let n = r_count r in
  let nodes =
    Array.init n (fun id ->
        let op = read_op r in
        let shape = r_ints r in
        let dtype = dtype_of_tag (r_u8 r) in
        { Graph.id; op; shape; dtype })
  in
  let outputs = r_list r r_i in
  try Graph.of_nodes nodes ~outputs with Graph.Ill_formed m -> malformed "graph: %s" m
