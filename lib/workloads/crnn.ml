(* CRNN (Shi et al.) for scene-text recognition: CNN feature extractor +
   bidirectional GRU + per-timestep softmax, batch 1 inference (Table 2).

   The paper's detailed case study (Table 4 ablation, Figure 15, Table 5)
   runs on this model: conv layers dominate the compute-intensive side,
   while the recurrent stack generates hundreds of small memory-intensive
   subgraphs. *)

open Astitch_ir

type config = {
  height : int;
  width : int;
  channels : int list; (* conv pyramid *)
  hidden : int;
  classes : int;
}

let inference_config =
  { height = 32; width = 100; channels = [ 64; 128; 256 ]; hidden = 256;
    classes = 37 }

let tiny_config =
  { height = 16; width = 24; channels = [ 2; 4 ]; hidden = 4; classes = 5 }

(* Per-image standardization: one long row-reduce over every pixel - a
   small-block-count shape only adaptive splitting parallelizes. *)
let standardize b x ~pixels =
  let flat = Builder.reshape b x [ 1; pixels ] in
  let mean = Builder.reduce_mean b ~axes:[ 1 ] flat in
  let mean_b = Builder.broadcast b mean ~dims:[ 0 ] [ 1; pixels ] in
  let centered = Builder.sub b flat mean_b in
  let var = Builder.reduce_mean b ~axes:[ 1 ] (Builder.mul b centered centered) in
  let eps = Builder.broadcast_scalar b (Builder.constant b 1e-6) [ 1 ] in
  let inv = Builder.rsqrt b (Builder.add b var eps) in
  let inv_b = Builder.broadcast b inv ~dims:[ 0 ] [ 1; pixels ] in
  Builder.mul b centered inv_b

let build_forward b (c : config) =
  let raw = Builder.parameter b "image" [ 1; c.height; c.width; 1 ] in
  let pixels = c.height * c.width in
  let x =
    Builder.reshape b (standardize b raw ~pixels) [ 1; c.height; c.width; 1 ]
  in
  (* conv pyramid: stride-2 3x3 convs with relu *)
  (* conv -> instance norm -> scale/shift -> relu: the classic CNN block.
     The norm's two reduces over the image-sized activations are exactly
     where XLA's pattern-1 cuts force it to materialize full feature maps
     several times, while stitching keeps them on-chip. *)
  let conv x ~in_ch ~out_ch i =
    let name = Printf.sprintf "conv%d" i in
    let f = Builder.parameter b (name ^ ".w") [ 3; 3; in_ch; out_ch ] in
    let y = Builder.conv2d b ~stride:2 x f in
    let ys = Shape.to_list (Builder.shape_of b y) in
    let n_, h_, w_, c_ =
      match ys with [ n; h; w; c ] -> (n, h, w, c) | _ -> assert false
    in
    let pixels = n_ * h_ * w_ in
    let flat = Builder.reshape b y [ pixels; c_ ] in
    (* per-channel statistics: column reduces over the pixel axis *)
    let mean = Builder.reduce_mean b ~axes:[ 0 ] flat in
    let mean_b = Builder.broadcast b mean ~dims:[ 1 ] [ pixels; c_ ] in
    let centered = Builder.sub b flat mean_b in
    let var =
      Builder.reduce_mean b ~axes:[ 0 ] (Builder.mul b centered centered)
    in
    let eps = Builder.broadcast_scalar b (Builder.constant b 1e-5) [ c_ ] in
    let inv_std = Builder.rsqrt b (Builder.add b var eps) in
    let inv_b = Builder.broadcast b inv_std ~dims:[ 1 ] [ pixels; c_ ] in
    let gamma = Builder.parameter b (name ^ ".gamma") [ c_ ] in
    let beta = Builder.parameter b (name ^ ".beta") [ c_ ] in
    let gamma_b = Builder.broadcast b gamma ~dims:[ 1 ] [ pixels; c_ ] in
    let beta_b = Builder.broadcast b beta ~dims:[ 1 ] [ pixels; c_ ] in
    let normed =
      Builder.add b (Builder.mul b (Builder.mul b centered inv_b) gamma_b) beta_b
    in
    Builder.reshape b (Builder.relu b normed) [ n_; h_; w_; c_ ]
  in
  (* conv (stride 1) + norm + 2x2 max-pool for the first block, strided
     convs after - the classic CRNN front-end *)
  let feat, _, _ =
    List.fold_left
      (fun (x, in_ch, i) out_ch ->
        let y = conv x ~in_ch ~out_ch i in
        let ys = Shape.to_list (Builder.shape_of b y) in
        let pooled =
          match ys with
          | [ _; h; w; _ ] when i = 0 && h >= 2 && w >= 2 ->
              Builder.max_pool b ~window:2 ~stride:2 y
          | _ -> y
        in
        (pooled, out_ch, i + 1))
      (x, 1, 0) c.channels
  in
  let fs = Shape.to_list (Builder.shape_of b feat) in
  let h', w', ch' =
    match fs with
    | [ 1; h; w; ch ] -> (h, w, ch)
    | _ -> Graph.ill_formed "crnn: unexpected conv output shape"
  in
  (* collapse height into channels; timesteps = width *)
  let tr = Builder.transpose b feat ~perm:[ 0; 2; 1; 3 ] in
  let seq = Builder.reshape b tr [ w'; h' * ch' ] in
  let w_in = Builder.parameter b "proj.w" [ h' * ch'; c.hidden ] in
  let b_in = Builder.parameter b "proj.b" [ c.hidden ] in
  let seq = Blocks.dense b seq ~weight:w_in ~bias:b_in in
  (* bidirectional GRU over the width timesteps, batch = 1 *)
  let step t = Builder.slice b seq ~starts:[ t; 0 ] ~stops:[ t + 1; c.hidden ] in
  let run_dir name order =
    let h0 = Builder.parameter b (name ^ ".h0") [ 1; c.hidden ] in
    let _, states =
      List.fold_left
        (fun (h, acc) t ->
          let h' =
            Blocks.gru_cell b
              ~name:(Printf.sprintf "%s.%d" name t)
              ~x:(step t) ~h ~batch:1 ~hidden:c.hidden
          in
          (h', (t, h') :: acc))
        (h0, []) order
    in
    states
  in
  let fwd = run_dir "gru_fwd" (List.init w' Fun.id) in
  let bwd = run_dir "gru_bwd" (List.rev (List.init w' Fun.id)) in
  let state dir t = List.assoc t dir in
  (* per-timestep class posteriors *)
  let w_out = Builder.parameter b "out.w" [ 2 * c.hidden; c.classes ] in
  let b_out = Builder.parameter b "out.b" [ c.classes ] in
  let posts =
    List.init w' (fun t ->
        let h = Builder.concat b ~axis:1 [ state fwd t; state bwd t ] in
        Builder.softmax b (Blocks.dense b h ~weight:w_out ~bias:b_out))
  in
  Builder.concat b ~axis:0 posts

let inference ?(config = inference_config) () =
  let b = Builder.create () in
  let out = build_forward b config in
  Builder.finish b ~outputs:[ out ]

let tiny () = inference ~config:tiny_config ()

(* --- Batched variant ----------------------------------------------------- *)

(* [batch] images in one graph.  The batch-1 builder above cannot be
   reused verbatim: its standardization reduces over [1; pixels] and its
   instance norm reduces over [n*h*w; c] flats, both of which would mix
   images at batch > 1.  The batched builder keeps every statistic
   per-image (rank-3 reduces over the image's own pixels, in the same
   element order as the batch-1 reduce), so each image's scalar sequence
   is identical whatever the batch - the property the serving batcher's
   bit-identity contract rests on.  The batch axis stays outermost
   throughout (the condition [Batch_axis.analyze] checks for prefix
   execution): tokens are image-major and a GRU step slices one
   timestep out of every image.  Request i owns output rows
   [i*w' .. (i+1)*w'). *)
let build_batched b (c : config) ~batch:n =
  let raw = Builder.parameter b "image" [ n; c.height; c.width; 1 ] in
  let pixels = c.height * c.width in
  (* per-image standardization over the image's own pixels *)
  let x =
    let flat = Builder.reshape b raw [ n; pixels ] in
    let mean = Builder.reduce_mean b ~axes:[ 1 ] flat in
    let mean_b = Builder.broadcast b mean ~dims:[ 0 ] [ n; pixels ] in
    let centered = Builder.sub b flat mean_b in
    let var =
      Builder.reduce_mean b ~axes:[ 1 ] (Builder.mul b centered centered)
    in
    let eps = Builder.broadcast_scalar b (Builder.constant b 1e-6) [ n ] in
    let inv = Builder.rsqrt b (Builder.add b var eps) in
    let inv_b = Builder.broadcast b inv ~dims:[ 0 ] [ n; pixels ] in
    Builder.reshape b
      (Builder.mul b centered inv_b)
      [ n; c.height; c.width; 1 ]
  in
  (* conv -> per-image instance norm -> scale/shift -> relu *)
  let conv x ~in_ch ~out_ch i =
    let name = Printf.sprintf "conv%d" i in
    let f = Builder.parameter b (name ^ ".w") [ 3; 3; in_ch; out_ch ] in
    let y = Builder.conv2d b ~stride:2 x f in
    let ys = Shape.to_list (Builder.shape_of b y) in
    let n_, h_, w_, c_ =
      match ys with [ n'; h; w; ch ] -> (n', h, w, ch) | _ -> assert false
    in
    let hw = h_ * w_ in
    let flat = Builder.reshape b y [ n_; hw; c_ ] in
    (* per-channel statistics over this image's pixels only *)
    let mean = Builder.reduce_mean b ~axes:[ 1 ] flat in
    let mean_b = Builder.broadcast b mean ~dims:[ 0; 2 ] [ n_; hw; c_ ] in
    let centered = Builder.sub b flat mean_b in
    let var =
      Builder.reduce_mean b ~axes:[ 1 ] (Builder.mul b centered centered)
    in
    let eps =
      Builder.broadcast_scalar b (Builder.constant b 1e-5) [ n_; c_ ]
    in
    let inv_std = Builder.rsqrt b (Builder.add b var eps) in
    let inv_b = Builder.broadcast b inv_std ~dims:[ 0; 2 ] [ n_; hw; c_ ] in
    let gamma = Builder.parameter b (name ^ ".gamma") [ c_ ] in
    let beta = Builder.parameter b (name ^ ".beta") [ c_ ] in
    let gamma_b = Builder.broadcast b gamma ~dims:[ 2 ] [ n_; hw; c_ ] in
    let beta_b = Builder.broadcast b beta ~dims:[ 2 ] [ n_; hw; c_ ] in
    let normed =
      Builder.add b
        (Builder.mul b (Builder.mul b centered inv_b) gamma_b)
        beta_b
    in
    Builder.reshape b (Builder.relu b normed) [ n_; h_; w_; c_ ]
  in
  let feat, _, _ =
    List.fold_left
      (fun (x, in_ch, i) out_ch ->
        let y = conv x ~in_ch ~out_ch i in
        let ys = Shape.to_list (Builder.shape_of b y) in
        let pooled =
          match ys with
          | [ _; h; w; _ ] when i = 0 && h >= 2 && w >= 2 ->
              Builder.max_pool b ~window:2 ~stride:2 y
          | _ -> y
        in
        (pooled, out_ch, i + 1))
      (x, 1, 0) c.channels
  in
  let fs = Shape.to_list (Builder.shape_of b feat) in
  let h', w', ch' =
    match fs with
    | [ n'; h; w; ch ] when n' = n -> (h, w, ch)
    | _ -> Graph.ill_formed "crnn: unexpected conv output shape"
  in
  (* image-major token layout: row i*w' + t is image i at timestep t,
     holding the same (height, channel) elements in the same order as
     the batch-1 row t, so every projection dot sums the same way *)
  let tr = Builder.transpose b feat ~perm:[ 0; 2; 1; 3 ] in
  let seq = Builder.reshape b tr [ n * w'; h' * ch' ] in
  let w_in = Builder.parameter b "proj.w" [ h' * ch'; c.hidden ] in
  let b_in = Builder.parameter b "proj.b" [ c.hidden ] in
  let seq =
    Builder.reshape b
      (Blocks.dense b seq ~weight:w_in ~bias:b_in)
      [ n; w'; c.hidden ]
  in
  (* a GRU step: timestep t of every image, [n; hidden] *)
  let step t =
    Builder.reshape b
      (Builder.slice b seq ~starts:[ 0; t; 0 ] ~stops:[ n; t + 1; c.hidden ])
      [ n; c.hidden ]
  in
  let run_dir name order =
    let h0 = Builder.parameter b (name ^ ".h0") [ n; c.hidden ] in
    let _, states =
      List.fold_left
        (fun (h, acc) t ->
          let h' =
            Blocks.gru_cell b
              ~name:(Printf.sprintf "%s.%d" name t)
              ~x:(step t) ~h ~batch:n ~hidden:c.hidden
          in
          (h', (t, h') :: acc))
        (h0, []) order
    in
    states
  in
  let fwd = run_dir "gru_fwd" (List.init w' Fun.id) in
  let bwd = run_dir "gru_bwd" (List.rev (List.init w' Fun.id)) in
  let state dir t = List.assoc t dir in
  let w_out = Builder.parameter b "out.w" [ 2 * c.hidden; c.classes ] in
  let b_out = Builder.parameter b "out.b" [ c.classes ] in
  let posts =
    List.init w' (fun t ->
        let h = Builder.concat b ~axis:1 [ state fwd t; state bwd t ] in
        let p = Builder.softmax b (Blocks.dense b h ~weight:w_out ~bias:b_out) in
        (* [n; classes] -> [n; 1; classes] so timesteps concat per image *)
        Builder.reshape b p [ n; 1; c.classes ])
  in
  (* image-major output: request i owns rows [i*w' .. (i+1)*w') *)
  let stacked = Builder.concat b ~axis:1 posts in
  Builder.reshape b stacked [ n * w'; c.classes ]

let batched ?(config = tiny_config) ~batch () =
  if batch < 1 then invalid_arg "Crnn.batched: batch must be >= 1";
  let b = Builder.create () in
  let out = build_batched b config ~batch in
  Builder.finish b ~outputs:[ out ]
