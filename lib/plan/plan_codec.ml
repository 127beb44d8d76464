(* Versioned binary codec for kernel plans.

   The format is deliberately dumb: [Op_format]'s words (little-endian
   64-bit integers, IEEE float bit patterns, so arch descriptors and
   constants round-trip exactly), a tag byte per variant constructor,
   length-prefixed strings and sequences, and the graph section written
   by [Op_format.write_graph].  The whole payload is guarded by an
   FNV-1a 64 checksum.  Canonical by construction: a plan is pure data,
   so structurally identical plans produce identical bytes and byte
   equality doubles as the bit-identity gate. *)

open Astitch_ir
open Astitch_simt
open Op_format

let version = 1
let magic = "ASPK"

type error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated of { want : int; have : int }
  | Checksum_mismatch
  | Malformed of string

let error_to_string = function
  | Bad_magic -> "bad magic: not a plan file"
  | Unsupported_version v ->
      Printf.sprintf "unsupported codec version %d (this codec is v%d)" v
        version
  | Truncated { want; have } ->
      Printf.sprintf "truncated: need %d bytes, have %d" want have
  | Checksum_mismatch -> "checksum mismatch: payload corrupted"
  | Malformed m -> "malformed payload: " ^ m

exception Codec_error of error

(* --- Checksum ------------------------------------------------------------- *)

let fnv1a64 s ~pos ~len =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) prime
  done;
  !h

(* --- Options ---------------------------------------------------------------- *)

let w_opt b wf = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      wf b v

let r_opt r rf =
  match r_u8 r with 0 -> None | 1 -> Some (rf r) | t -> malformed "option tag %d" t

(* --- Enums ---------------------------------------------------------------- *)

let scheme_tag : Scheme.t -> int = function
  | Independent -> 0 | Local -> 1 | Regional -> 2 | Global -> 3

let scheme_of_tag : int -> Scheme.t = function
  | 0 -> Independent | 1 -> Local | 2 -> Regional | 3 -> Global
  | t -> malformed "scheme tag %d" t

let placement_tag : Kernel_plan.placement -> int = function
  | Register -> 0 | Shared_mem -> 1 | Global_scratch -> 2 | Device_mem -> 3

let placement_of_tag : int -> Kernel_plan.placement = function
  | 0 -> Register | 1 -> Shared_mem | 2 -> Global_scratch | 3 -> Device_mem
  | t -> malformed "placement tag %d" t

let kind_tag : Kernel_plan.kernel_kind -> int = function
  | Codegen -> 0 | Library -> 1 | Copy -> 2

let kind_of_tag : int -> Kernel_plan.kernel_kind = function
  | 0 -> Codegen | 1 -> Library | 2 -> Copy
  | t -> malformed "kernel kind tag %d" t

(* --- Arch ----------------------------------------------------------------- *)

(* The full device descriptor travels with the plan (not just a name):
   plans compiled against synthetic arches - the tight-shared-mem test
   device, future device-profile families - round-trip without a
   registry lookup. *)
let w_arch b (a : Arch.t) =
  w_s b a.name;
  List.iter (w_i b)
    [
      a.num_sms; a.warp_size; a.max_threads_per_sm; a.max_blocks_per_sm;
      a.max_warps_per_sm; a.max_threads_per_block; a.registers_per_sm;
      a.max_registers_per_thread; a.shared_mem_per_sm; a.shared_mem_per_block;
      a.l2_cache_bytes;
    ];
  List.iter (w_f b)
    [
      a.dram_bandwidth_gbs; a.fp32_tflops; a.fp16_tflops; a.library_tflops;
      a.sm_clock_ghz;
    ]

let r_arch r : Arch.t =
  let name = r_s r in
  let num_sms = r_i r in
  let warp_size = r_i r in
  let max_threads_per_sm = r_i r in
  let max_blocks_per_sm = r_i r in
  let max_warps_per_sm = r_i r in
  let max_threads_per_block = r_i r in
  let registers_per_sm = r_i r in
  let max_registers_per_thread = r_i r in
  let shared_mem_per_sm = r_i r in
  let shared_mem_per_block = r_i r in
  let l2_cache_bytes = r_i r in
  let dram_bandwidth_gbs = r_f r in
  let fp32_tflops = r_f r in
  let fp16_tflops = r_f r in
  let library_tflops = r_f r in
  let sm_clock_ghz = r_f r in
  {
    name; num_sms; warp_size; max_threads_per_sm; max_blocks_per_sm;
    max_warps_per_sm; max_threads_per_block; registers_per_sm;
    max_registers_per_thread; shared_mem_per_sm; shared_mem_per_block;
    l2_cache_bytes; dram_bandwidth_gbs; fp32_tflops; fp16_tflops;
    library_tflops; sm_clock_ghz;
  }

(* --- Mappings, kernels, plan ---------------------------------------------- *)

let w_mapping b : Thread_mapping.t -> unit = function
  | Elementwise { elements; block; grid; rows } ->
      w_u8 b 0;
      w_i b elements;
      w_i b block;
      w_i b grid;
      w_opt b w_i rows
  | Row_reduce
      { rows; row_length; threads_per_row; rows_per_block;
        row_groups_per_block; split } ->
      w_u8 b 1;
      List.iter (w_i b)
        [ rows; row_length; threads_per_row; rows_per_block;
          row_groups_per_block; split ]
  | Column_reduce { rows; row_length; block; grid } ->
      w_u8 b 2;
      List.iter (w_i b) [ rows; row_length; block; grid ]

let r_mapping r : Thread_mapping.t =
  match r_u8 r with
  | 0 ->
      let elements = r_i r in
      let block = r_i r in
      let grid = r_i r in
      Elementwise { elements; block; grid; rows = r_opt r r_i }
  | 1 ->
      let rows = r_i r in
      let row_length = r_i r in
      let threads_per_row = r_i r in
      let rows_per_block = r_i r in
      let row_groups_per_block = r_i r in
      Row_reduce
        { rows; row_length; threads_per_row; rows_per_block;
          row_groups_per_block; split = r_i r }
  | 2 ->
      let rows = r_i r in
      let row_length = r_i r in
      let block = r_i r in
      Column_reduce { rows; row_length; block; grid = r_i r }
  | t -> malformed "mapping tag %d" t

let w_cop b (o : Kernel_plan.compiled_op) =
  w_i b o.id;
  w_u8 b (scheme_tag o.scheme);
  w_u8 b (placement_tag o.placement);
  w_mapping b o.mapping;
  w_i b o.recompute;
  w_i b o.group

let r_cop r : Kernel_plan.compiled_op =
  let id = r_i r in
  let scheme = scheme_of_tag (r_u8 r) in
  let placement = placement_of_tag (r_u8 r) in
  let mapping = r_mapping r in
  let recompute = r_i r in
  { id; scheme; placement; mapping; recompute; group = r_i r }

let w_launch b (l : Astitch_simt.Launch.t) =
  w_i b l.grid;
  w_i b l.block;
  w_i b l.regs_per_thread;
  w_i b l.shared_mem_per_block

let r_launch r : Astitch_simt.Launch.t =
  let grid = r_i r in
  let block = r_i r in
  let regs_per_thread = r_i r in
  let shared_mem_per_block = r_i r in
  try
    Astitch_simt.Launch.make ~regs_per_thread ~shared_mem_per_block ~grid
      ~block ()
  with Astitch_simt.Launch.Invalid m -> malformed "launch: %s" m

let w_kernel b (k : Kernel_plan.kernel) =
  w_s b k.name;
  w_u8 b (kind_tag k.kind);
  w_list b w_cop k.ops;
  w_launch b k.launch;
  w_i b k.barriers;
  w_i b k.scratch_bytes

let r_kernel r : Kernel_plan.kernel =
  let name = r_s r in
  let kind = kind_of_tag (r_u8 r) in
  let ops = r_list r r_cop in
  let launch = r_launch r in
  let barriers = r_i r in
  { name; kind; ops; launch; barriers; scratch_bytes = r_i r }

let w_cls b : Batch_axis.cls -> unit = function
  | Invariant -> w_u8 b 0
  | Scaled { axis; unit } ->
      w_u8 b 1;
      w_i b axis;
      w_i b unit

let r_cls r : Batch_axis.cls =
  match r_u8 r with
  | 0 -> Invariant
  | 1 ->
      let axis = r_i r in
      Scaled { axis; unit = r_i r }
  | t -> malformed "batch-axis cls tag %d" t

let w_batch b (p : Batch_axis.plan) =
  w_i b p.max_batch;
  w_arr b w_cls p.cls

let r_batch r : Batch_axis.plan =
  let max_batch = r_i r in
  { max_batch; cls = r_arr r r_cls }

let w_plan b (p : Kernel_plan.t) =
  w_arch b p.arch;
  write_graph b p.graph;
  w_list b w_kernel p.kernels;
  w_i b p.memcpys;
  w_i b p.memsets;
  w_i b p.memcpy_bytes;
  w_opt b w_batch p.batch

let r_plan r : Kernel_plan.t =
  let arch = r_arch r in
  let graph = read_graph r in
  let kernels = r_list r r_kernel in
  let memcpys = r_i r in
  let memsets = r_i r in
  let memcpy_bytes = r_i r in
  let batch = r_opt r r_batch in
  { arch; graph; kernels; memcpys; memsets; memcpy_bytes; batch }

(* --- Entry points --------------------------------------------------------- *)

let encode plan =
  let payload = Buffer.create 4096 in
  w_plan payload plan;
  let payload = Buffer.contents payload in
  let b = Buffer.create (String.length payload + 24) in
  Buffer.add_string b magic;
  Buffer.add_int64_le b (Int64.of_int version);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.add_int64_le b (fnv1a64 payload ~pos:0 ~len:(String.length payload));
  Buffer.contents b

let decode_exn s =
  let len = String.length s in
  if len < 4 then raise (Codec_error (Truncated { want = 4; have = len }));
  if String.sub s 0 4 <> magic then raise (Codec_error Bad_magic);
  if len < 20 then raise (Codec_error (Truncated { want = 20; have = len }));
  let v = Int64.to_int (String.get_int64_le s 4) in
  if v <> version then raise (Codec_error (Unsupported_version v));
  let plen = Int64.to_int (String.get_int64_le s 12) in
  let want = 20 + plen + 8 in
  if plen < 0 || len < want then
    raise (Codec_error (Truncated { want; have = len }));
  if len > want then
    raise
      (Codec_error
         (Malformed
            (Printf.sprintf "%d trailing bytes after checksum" (len - want))));
  let stored = String.get_int64_le s (20 + plen) in
  if not (Int64.equal stored (fnv1a64 s ~pos:20 ~len:plen)) then
    raise (Codec_error Checksum_mismatch);
  let r = reader s ~pos:20 ~limit:(20 + plen) in
  let plan =
    try r_plan r with
    | Op_format.Malformed m -> raise (Codec_error (Malformed m))
    | Thread_mapping.Invalid m ->
        raise (Codec_error (Malformed ("mapping: " ^ m)))
    | Shape.Invalid m -> raise (Codec_error (Malformed ("shape: " ^ m)))
  in
  if pos r <> 20 + plen then
    raise
      (Codec_error
         (Malformed
            (Printf.sprintf "%d trailing payload bytes" (20 + plen - pos r))));
  plan

let decode s =
  match decode_exn s with
  | plan -> Ok plan
  | exception Codec_error e -> Error e

let equal a b = String.equal (encode a) (encode b)
