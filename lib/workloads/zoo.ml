(* Registry of the paper's five evaluation workloads (Table 2). *)

open Astitch_ir

type entry = {
  name : string;
  field : string;
  inference : unit -> Graph.t;
  training : (unit -> Graph.t) option;
  tiny : unit -> Graph.t;
  tiny_training : (unit -> Graph.t) option;
  batched : batch:int -> Graph.t;
  train_batch : int option;
  infer_batch : int;
}

let all =
  [
    {
      name = "CRNN";
      field = "Images";
      inference = (fun () -> Crnn.inference ());
      training = None;
      tiny = Crnn.tiny;
      tiny_training = None;
      batched = (fun ~batch -> Crnn.batched ~batch ());
      train_batch = None;
      infer_batch = 1;
    };
    {
      name = "ASR";
      field = "Speech";
      inference = (fun () -> Asr.inference ());
      training = None;
      tiny = Asr.tiny;
      tiny_training = None;
      batched = (fun ~batch -> Asr.batched ~batch ());
      train_batch = None;
      infer_batch = 1;
    };
    {
      name = "BERT";
      field = "NLP";
      inference = (fun () -> Bert.inference ());
      training = Some (fun () -> Bert.training ());
      tiny = Bert.tiny;
      tiny_training = Some Bert.tiny_training;
      batched = (fun ~batch -> Bert.batched ~batch ());
      train_batch = Some 12;
      infer_batch = 200;
    };
    {
      name = "Transformer";
      field = "NLP";
      inference = (fun () -> Transformer.inference ());
      training = Some (fun () -> Transformer.training ());
      tiny = Transformer.tiny;
      tiny_training = Some Transformer.tiny_training;
      batched = (fun ~batch -> Transformer.batched ~batch ());
      train_batch = Some 4096;
      infer_batch = 1;
    };
    {
      name = "DIEN";
      field = "Recommendation";
      inference = (fun () -> Dien.inference ());
      training = Some (fun () -> Dien.training ());
      tiny = Dien.tiny;
      tiny_training = Some Dien.tiny_training;
      batched = (fun ~batch -> Dien.batched ~batch ());
      train_batch = Some 256;
      infer_batch = 256;
    };
  ]

let find name =
  List.find_opt
    (fun e -> String.lowercase_ascii e.name = String.lowercase_ascii name)
    all
