(* File-backed block and certificate storage: the persistence a real
   deployment needs to survive restarts, and the concrete form of the
   sharded storage of section 8.3 (a user on shard k keeps exactly
   these files for its rounds).

   Layout: one directory, two files per round -
     <round>.block  : Codec-encoded block
     <round>.cert   : Codec-encoded certificate
   Every file is written crash-atomically (temp file + rename), so a
   process killed mid-checkpoint leaves either the old round files, the
   new ones, or a clean absence - never a half-written file that poisons
   the whole history. Loading re-validates everything through
   History.replay, so a corrupted or tampered store is rejected, not
   trusted. *)

module Block = Algorand_ledger.Block

let block_file dir round = Filename.concat dir (Printf.sprintf "%06d.block" round)
let cert_file dir round = Filename.concat dir (Printf.sprintf "%06d.cert" round)

(* Crash-atomic write: the data lands under a temp name and is renamed
   into place, so readers only ever see complete files. *)
let write_file (path : string) (data : string) : unit =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc data;
  close_out oc;
  Sys.rename tmp path

let read_file (path : string) : string option =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let data = really_input_string ic n in
    close_in ic;
    Some data
  end

let rec mkdir_p (dir : string) : unit =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Persist a certified history (from Node.history / history_from, or
   a node's periodic checkpoint). The certificate is written before the
   block, so a round whose block file exists is complete. *)
let save (dir : string) (items : History.item list) : unit =
  mkdir_p dir;
  List.iter
    (fun ({ block; certificate } : History.item) ->
      let round = Block.round block in
      write_file (cert_file dir round) (Codec.encode_certificate certificate);
      write_file (block_file dir round) (Codec.encode_block block))
    items

(* Rounds present on disk, ascending. *)
let stored_rounds (dir : string) : int list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           match Filename.chop_suffix_opt ~suffix:".block" f with
           | Some stem -> int_of_string_opt stem
           | None -> None)
    |> List.sort compare

type load_error = [ `Missing of int | `Corrupt of int ]

let pp_load_error fmt = function
  | `Missing r -> Format.fprintf fmt "round %d missing from store" r
  | `Corrupt r -> Format.fprintf fmt "round %d does not decode" r

(* Read rounds 1..up_to back as a catch-up history (unvalidated: feed
   to History.replay, which re-checks every certificate). A truncated
   or corrupted tail - what a crash mid-checkpoint leaves - costs only
   the tail: the valid prefix is returned along with the reason the
   scan stopped ([None] when every requested round was read). *)
let load ?(up_to_round = max_int) (dir : string) :
    History.item list * load_error option =
  let rec go r acc =
    if r > up_to_round then (List.rev acc, None)
    else begin
      match (read_file (block_file dir r), read_file (cert_file dir r)) with
      | None, _ | _, None -> (List.rev acc, Some (`Missing r))
      | Some braw, Some craw -> (
        match (Codec.decode_block braw, Codec.decode_certificate craw) with
        | Some block, Some certificate ->
          go (r + 1) ({ History.block; certificate } :: acc)
        | _ -> (List.rev acc, Some (`Corrupt r)))
    end
  in
  go 1 []

(* Bytes on disk (the section 10.3 storage-cost accounting, measured
   rather than estimated). *)
let size_bytes (dir : string) : int =
  if not (Sys.file_exists dir) then 0
  else
    Sys.readdir dir |> Array.to_list
    |> List.fold_left
         (fun acc f ->
           let st = Unix.stat (Filename.concat dir f) in
           acc + st.Unix.st_size)
         0

(* Per-identity state directory: N daemons sharing one --store root
   must never collide, and a pk can contain bytes unfit for a path, so
   the directory name is a hash of the identity. *)
let node_dir ~(root : string) ~(pk : string) : string =
  let tag = String.sub (Algorand_crypto.Sha256.digest_hex pk) 0 16 in
  Filename.concat root ("node-" ^ tag)
