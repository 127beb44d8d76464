(* A textual graph format with a round-tripping printer/parser.

   Example:

     graph {
       %0 = parameter "x" f32<4,8>
       %1 = tanh %0
       %2 = reduce.sum axes=[1] %1
       %3 = broadcast dims=[0] %2 -> <4,8>
       %4 = add %3 %0
       outputs %4
     }

   Node ids must be dense and ascending (the printer always emits them
   that way); '#' starts a comment. *)

exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* --- Printing ------------------------------------------------------------- *)

let dims_to_string dims =
  "<" ^ String.concat "," (List.map string_of_int (Array.to_list dims)) ^ ">"

let int_list_to_string l =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list l)) ^ "]"

let node_to_string (nd : Graph.node) =
  let r id = Printf.sprintf "%%%d" id in
  let rhs =
    match nd.op with
    | Op.Parameter { name } ->
        Printf.sprintf "parameter \"%s\" %s%s" name
          (Dtype.to_string nd.dtype)
          (dims_to_string nd.shape)
    | Op.Constant { value } ->
        Printf.sprintf "constant %h %s%s" value
          (Dtype.to_string nd.dtype)
          (dims_to_string nd.shape)
    | Op.Iota { axis } ->
        Printf.sprintf "iota axis=%d %s%s" axis
          (Dtype.to_string nd.dtype)
          (dims_to_string nd.shape)
    | Op.Unary { kind; input } ->
        Printf.sprintf "%s %s" (Op.unary_to_string kind) (r input)
    | Op.Binary { kind; lhs; rhs } ->
        Printf.sprintf "%s %s %s" (Op.binary_to_string kind) (r lhs) (r rhs)
    | Op.Broadcast { input; dims } ->
        Printf.sprintf "broadcast dims=%s %s -> %s" (int_list_to_string dims)
          (r input) (dims_to_string nd.shape)
    | Op.Reduce { input; kind; axes } ->
        Printf.sprintf "reduce.%s axes=%s %s" (Op.reduce_to_string kind)
          (int_list_to_string axes) (r input)
    | Op.Reshape { input } ->
        Printf.sprintf "reshape %s -> %s" (r input) (dims_to_string nd.shape)
    | Op.Transpose { input; perm } ->
        Printf.sprintf "transpose perm=%s %s" (int_list_to_string perm) (r input)
    | Op.Select { pred; on_true; on_false } ->
        Printf.sprintf "select %s %s %s" (r pred) (r on_true) (r on_false)
    | Op.Concat { inputs; axis } ->
        Printf.sprintf "concat axis=%d %s" axis
          (String.concat " " (List.map r inputs))
    | Op.Slice { input; starts; stops } ->
        Printf.sprintf "slice starts=%s stops=%s %s" (int_list_to_string starts)
          (int_list_to_string stops) (r input)
    | Op.Pad { input; low; high } ->
        Printf.sprintf "pad low=%s high=%s %s" (int_list_to_string low)
          (int_list_to_string high) (r input)
    | Op.Gather { params; indices } ->
        Printf.sprintf "gather %s %s" (r params) (r indices)
    | Op.Scatter_add { indices; updates; rows } ->
        Printf.sprintf "scatter_add rows=%d %s %s" rows (r indices) (r updates)
    | Op.Max_pool { input; window; stride } ->
        Printf.sprintf "max_pool window=%d stride=%d %s" window stride (r input)
    | Op.Dot { lhs; rhs } -> Printf.sprintf "dot %s %s" (r lhs) (r rhs)
    | Op.Conv2d { input; filter; stride } ->
        Printf.sprintf "conv2d stride=%d %s %s" stride (r input) (r filter)
  in
  Printf.sprintf "  %%%d = %s" nd.id rhs

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph {\n";
  Graph.iter_nodes
    (fun nd -> Buffer.add_string buf (node_to_string nd ^ "\n"))
    g;
  Buffer.add_string buf
    ("  outputs "
    ^ String.concat " " (List.map (Printf.sprintf "%%%d") (Graph.outputs g))
    ^ "\n}\n");
  Buffer.contents buf

(* --- Parsing ---------------------------------------------------------------- *)

(* Tokens are whitespace-separated; the printer always spaces them out. *)
let tokenize line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* Kind and dtype names are the printers' ([Op.*_to_string],
   [Dtype.to_string]) over [Op_format]'s kind lists. *)
let named to_string kinds s = Array.find_opt (fun k -> String.equal (to_string k) s) kinds

let parse_shape_suffix s =
  (* "f32<2,3>" -> (dtype, dims) ; "<2,3>" -> dims with default dtype *)
  match String.index_opt s '<' with
  | None -> parse_error "expected a shape in %s" s
  | Some i ->
      let dtype_str = String.sub s 0 i in
      let dtype =
        if dtype_str = "" then Dtype.F32
        else
          match named Dtype.to_string Op_format.dtypes dtype_str with
          | Some d -> d
          | None -> parse_error "unknown dtype %s" dtype_str
      in
      let inner = String.sub s (i + 1) (String.length s - i - 2) in
      if String.length s = 0 || s.[String.length s - 1] <> '>' then
        parse_error "unterminated shape in %s" s;
      let dims =
        if inner = "" then []
        else List.map int_of_string (String.split_on_char ',' inner)
      in
      (dtype, dims)

let parse_int_list ~key s =
  (* "axes=[1,2]" *)
  let prefix = key ^ "=[" in
  let pl = String.length prefix in
  if String.length s < pl + 1 || String.sub s 0 pl <> prefix then
    parse_error "expected %s=[...] but found %s" key s;
  let inner = String.sub s pl (String.length s - pl - 1) in
  if s.[String.length s - 1] <> ']' then parse_error "unterminated %s" s;
  if inner = "" then [] else List.map int_of_string (String.split_on_char ',' inner)

let parse_int_field ~key s =
  let prefix = key ^ "=" in
  let pl = String.length prefix in
  if String.length s < pl || String.sub s 0 pl <> prefix then
    parse_error "expected %s=N but found %s" key s;
  int_of_string (String.sub s pl (String.length s - pl))

let parse_ref s =
  if String.length s < 2 || s.[0] <> '%' then
    parse_error "expected %%id but found %s" s;
  int_of_string (String.sub s 1 (String.length s - 1))

let parse_name s =
  let n = String.length s in
  if n < 2 || s.[0] <> '"' || s.[n - 1] <> '"' then
    parse_error "expected a quoted name but found %s" s;
  String.sub s 1 (n - 2)

let parse text =
  let b = Builder.create () in
  let outputs = ref None in
  let expect_id = ref 0 in
  let parse_node_line tokens =
    match tokens with
    | id_tok :: "=" :: mnemonic :: args ->
        let id = parse_ref id_tok in
        if id <> !expect_id then
          parse_error "node ids must be dense: expected %%%d, found %%%d"
            !expect_id id;
        incr expect_id;
        let v =
          match (mnemonic, args) with
          | "parameter", [ name; shape ] ->
              let dtype, dims = parse_shape_suffix shape in
              Builder.parameter b ~dtype (parse_name name) dims
          | "constant", [ value; shape ] ->
              let dtype, dims = parse_shape_suffix shape in
              Builder.constant b ~dtype ~dims (float_of_string value)
          | "iota", [ axis; shape ] ->
              let dtype, dims = parse_shape_suffix shape in
              Builder.iota b ~dtype ~axis:(parse_int_field ~key:"axis" axis) dims
          | "broadcast", [ dims_tok; input; "->"; shape ] ->
              let _, out_dims = parse_shape_suffix shape in
              Builder.broadcast b (parse_ref input)
                ~dims:(parse_int_list ~key:"dims" dims_tok)
                out_dims
          | "reshape", [ input; "->"; shape ] ->
              let _, out_dims = parse_shape_suffix shape in
              Builder.reshape b (parse_ref input) out_dims
          | "transpose", [ perm; input ] ->
              Builder.transpose b (parse_ref input)
                ~perm:(parse_int_list ~key:"perm" perm)
          | "select", [ p; t; f ] ->
              Builder.select b ~pred:(parse_ref p) ~on_true:(parse_ref t)
                ~on_false:(parse_ref f)
          | "concat", axis :: inputs when inputs <> [] ->
              Builder.concat b
                ~axis:(parse_int_field ~key:"axis" axis)
                (List.map parse_ref inputs)
          | "slice", [ starts; stops; input ] ->
              Builder.slice b (parse_ref input)
                ~starts:(parse_int_list ~key:"starts" starts)
                ~stops:(parse_int_list ~key:"stops" stops)
          | "pad", [ low; high; input ] ->
              Builder.pad b (parse_ref input)
                ~low:(parse_int_list ~key:"low" low)
                ~high:(parse_int_list ~key:"high" high)
          | "gather", [ params; indices ] ->
              Builder.gather b (parse_ref params) (parse_ref indices)
          | "scatter_add", [ rows; indices; updates ] ->
              Builder.scatter_add b
                ~rows:(parse_int_field ~key:"rows" rows)
                (parse_ref indices) (parse_ref updates)
          | "max_pool", [ window; stride; input ] ->
              Builder.max_pool b
                ~window:(parse_int_field ~key:"window" window)
                ~stride:(parse_int_field ~key:"stride" stride)
                (parse_ref input)
          | "dot", [ lhs; rhs ] -> Builder.dot b (parse_ref lhs) (parse_ref rhs)
          | "conv2d", [ stride; input; filter ] ->
              Builder.conv2d b
                ~stride:(parse_int_field ~key:"stride" stride)
                (parse_ref input) (parse_ref filter)
          | _, args -> (
              (* reduce.KIND, unary, binary *)
              match String.split_on_char '.' mnemonic with
              | [ "reduce"; kind_str ] -> (
                  match (named Op.reduce_to_string Op_format.reduce_kinds kind_str, args) with
                  | Some kind, [ axes; input ] ->
                      Builder.reduce b kind
                        ~axes:(parse_int_list ~key:"axes" axes)
                        (parse_ref input)
                  | _ -> parse_error "bad reduce: %s" (String.concat " " args))
              | _ -> (
                  match
                    ( named Op.unary_to_string Op_format.unary_kinds mnemonic,
                      named Op.binary_to_string Op_format.binary_kinds mnemonic,
                      args )
                  with
                  | Some kind, _, [ input ] -> Builder.unary b kind (parse_ref input)
                  | _, Some kind, [ lhs; rhs ] ->
                      Builder.binary b kind (parse_ref lhs) (parse_ref rhs)
                  | _ -> parse_error "unknown op %s" mnemonic))
        in
        if v <> id then
          parse_error "internal id drift at %%%d" id
    | _ -> parse_error "malformed node line: %s" (String.concat " " tokens)
  in
  String.split_on_char '\n' text
  |> List.iteri (fun lineno line ->
         let line = strip_comment line in
         match tokenize line with
         | [] -> ()
         | [ "graph"; "{" ] | [ "}" ] -> ()
         | "outputs" :: outs -> (
             if !outputs <> None then
               parse_error "line %d: duplicate outputs" (lineno + 1);
             try outputs := Some (List.map parse_ref outs)
             with Parse_error m | Failure m ->
               parse_error "line %d: %s" (lineno + 1) m)
         | tokens -> (
             try parse_node_line tokens with
             | Parse_error m -> parse_error "line %d: %s" (lineno + 1) m
             | Graph.Ill_formed m | Shape.Invalid m | Shape_infer.Error m ->
                 parse_error "line %d: %s" (lineno + 1) m
             | Failure m ->
                 parse_error "line %d: %s" (lineno + 1) m));
  match !outputs with
  | None -> parse_error "missing outputs line"
  | Some outs -> Builder.finish b ~outputs:outs
