(* Deterministic hostile transaction workload (section 10 scale runs).

   Generates payment traffic against a population of accounts with the
   shapes that hurt a ledger in practice:

     - Zipf hot-key skew: account popularity follows rank^(-s), so a
       few accounts absorb most of the traffic and their shards see
       contention while the long tail stays cold;
     - configurable invalid / duplicate / self-payment mixes, the
       admission-control workload (proposers must filter, pools must
       dedup, and self-pays must not mint money);
     - square-wave bursts that multiply the arrival rate for a duty
       fraction of each period, stressing pool bounds and batch sizes.

   Everything is driven by a self-contained splitmix64 generator so a
   (config, seed) pair replays the identical stream on any OCaml - the
   ledger library cannot depend on the simulator's RNG, and benches
   need streams that are stable across processes. *)

module Scheme = Algorand_crypto.Signature_scheme

type mix = {
  invalid : float;  (** unappliable: bad nonce or overdraft, alternating *)
  duplicate : float;  (** byte-identical re-emission of a recent transaction *)
  self_pay : float;  (** sender = recipient (valid; must conserve money) *)
}

let clean = { invalid = 0.0; duplicate = 0.0; self_pay = 0.0 }
let hostile = { invalid = 0.1; duplicate = 0.1; self_pay = 0.05 }

type burst = {
  period_s : float;  (** square-wave period *)
  duty : float;  (** fraction of each period spent bursting *)
  mult : float;  (** arrival-rate multiplier inside the burst window *)
}

type accounts =
  | Synthetic of { n : int; scheme : Scheme.scheme }
      (** [n] accounts with scheme keys derived from the workload seed *)
  | Provided of { pks : string array; signers : Scheme.signer array }
      (** existing accounts (e.g. the harness's node identities) *)

type config = {
  accounts : accounts;
  zipf_s : float;  (** 0.0 = uniform; 1.0+ = heavy hot-key skew *)
  mix : mix;
  burst : burst option;
  amount : int;  (** per-payment amount for valid transfers *)
  seed : int;
}

let default_config =
  { accounts = Synthetic { n = 1000; scheme = Scheme.sim };
    zipf_s = 0.0;
    mix = clean;
    burst = None;
    amount = 1;
    seed = 1 }

type stats = {
  generated : int;
  valid : int;
  invalid : int;
  duplicate : int;
  self_pay : int;
}

(* Ring of recently emitted valid transactions, the duplicate pool. *)
let recent_capacity = 1024

type t = {
  cfg : config;
  pks : string array;
  signers : Scheme.signer option array;  (** lazily built for [Synthetic] *)
  nonces : int array;
  cdf : float array;  (** Zipf CDF over account ranks; [||] = uniform *)
  mutable state : int64;
  recent : (Transaction.t * int) option array;
  mutable recent_pos : int;
  mutable recent_len : int;
  mutable generated : int;
  mutable n_valid : int;
  mutable n_invalid : int;
  mutable n_duplicate : int;
  mutable n_self_pay : int;
}

(* splitmix64: tiny, splittable-quality, endianness-free. *)
let next_u64 (t : t) : int64 =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let float01 (t : t) : float =
  Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) *. 0x1.0p-53

let int_below (t : t) (n : int) : int =
  if n <= 0 then 0 else min (n - 1) (int_of_float (float01 t *. float_of_int n))

let n_accounts (t : t) : int = Array.length t.pks

let account_pk (t : t) (i : int) : string = t.pks.(i)

let signer_for (t : t) (i : int) : Scheme.signer =
  match t.signers.(i) with
  | Some s -> s
  | None ->
    let scheme =
      match t.cfg.accounts with
      | Synthetic { scheme; _ } -> scheme
      | Provided _ -> assert false
    in
    let signer, _pk =
      scheme.Scheme.generate ~seed:(Printf.sprintf "wl-%d-acct-%d" t.cfg.seed i)
    in
    t.signers.(i) <- Some signer;
    signer

let create (cfg : config) : t =
  let pks, signers =
    match cfg.accounts with
    | Provided { pks; signers } ->
      if Array.length pks <> Array.length signers then
        invalid_arg "Workload.create: pks/signers length mismatch";
      (Array.copy pks, Array.map Option.some signers)
    | Synthetic { n; scheme } ->
      if n <= 0 then invalid_arg "Workload.create: need at least one account";
      (* Keys are derived, not random, so the account set replays; the
         signer closures are filled in lazily because only the hot
         ranks of a skewed run ever sign anything. *)
      let pks =
        Array.init n (fun i ->
            let _signer, pk =
              scheme.Scheme.generate
                ~seed:(Printf.sprintf "wl-%d-acct-%d" cfg.seed i)
            in
            pk)
      in
      (pks, Array.make n None)
  in
  let n = Array.length pks in
  let cdf =
    if cfg.zipf_s <= 0.0 then [||]
    else begin
      let w = Array.init n (fun i -> (float_of_int (i + 1)) ** -.cfg.zipf_s) in
      let acc = ref 0.0 in
      let c = Array.map (fun x -> acc := !acc +. x; !acc) w in
      let total = !acc in
      Array.map (fun x -> x /. total) c
    end
  in
  {
    cfg;
    pks;
    signers;
    nonces = Array.make n 0;
    cdf;
    state = Int64.of_int ((cfg.seed * 2) + 1);
    recent = Array.make recent_capacity None;
    recent_pos = 0;
    recent_len = 0;
    generated = 0;
    n_valid = 0;
    n_invalid = 0;
    n_duplicate = 0;
    n_self_pay = 0;
  }

(* Zipf draw: binary search the CDF for a uniform variate. Rank 0 is
   the hottest account. *)
let draw_account (t : t) : int =
  let n = n_accounts t in
  if Array.length t.cdf = 0 then int_below t n
  else begin
    let u = float01 t in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let remember (t : t) (tx : Transaction.t) (origin : int) : unit =
  t.recent.(t.recent_pos) <- Some (tx, origin);
  t.recent_pos <- (t.recent_pos + 1) mod recent_capacity;
  t.recent_len <- min recent_capacity (t.recent_len + 1)

let make_tx (t : t) ~(sender : int) ~(recipient : int) ~(amount : int)
    ~(nonce : int) : Transaction.t =
  Transaction.make ~signer:(signer_for t sender) ~sender:t.pks.(sender)
    ~recipient:t.pks.(recipient) ~amount ~nonce

(* An amount no honest balance can cover: genesis totals are bounded by
   max_int, so half of it always overdrafts. *)
let overdraft_amount = max_int / 2

let next (t : t) : Transaction.t * int =
  t.generated <- t.generated + 1;
  let n = n_accounts t in
  let m = t.cfg.mix in
  let u = float01 t in
  let category =
    if u < m.duplicate then
      (* Until the ring has something to echo, duplicates degrade to
         fresh valid payments (never to another hostile category). *)
      if t.recent_len > 0 then `Duplicate else `Valid
    else if u < m.duplicate +. m.invalid then `Invalid
    else if u < m.duplicate +. m.invalid +. m.self_pay then `Self_pay
    else `Valid
  in
  match category with
  | `Duplicate -> begin
    (* Re-emit a recent transaction byte-for-byte (replay attack /
       gossip echo). *)
    match t.recent.(int_below t t.recent_len) with
    | Some (tx, origin) ->
      t.n_duplicate <- t.n_duplicate + 1;
      (tx, origin)
    | None -> assert false
  end
  | `Invalid ->
    (* Alternate the two rejection paths: future nonce and overdraft.
       Neither consumes the tracked nonce - the account's next valid
       payment still applies. *)
    let a = draw_account t in
    let b = if n = 1 then a else (a + 1 + int_below t (n - 1)) mod n in
    let tx =
      if t.generated land 1 = 0 then
        make_tx t ~sender:a ~recipient:b ~amount:t.cfg.amount
          ~nonce:(t.nonces.(a) + 1_000_000)
      else
        make_tx t ~sender:a ~recipient:b ~amount:overdraft_amount
          ~nonce:t.nonces.(a)
    in
    t.n_invalid <- t.n_invalid + 1;
    (tx, a)
  | `Self_pay ->
    (* Valid self-payment: consumes a nonce, must leave every balance
       unchanged (the inflation-bug regression traffic). *)
    let a = draw_account t in
    let tx = make_tx t ~sender:a ~recipient:a ~amount:t.cfg.amount ~nonce:t.nonces.(a) in
    t.nonces.(a) <- t.nonces.(a) + 1;
    t.n_self_pay <- t.n_self_pay + 1;
    remember t tx a;
    (tx, a)
  | `Valid ->
    let a = draw_account t in
    let b = if n = 1 then a else (a + 1 + int_below t (n - 1)) mod n in
    let tx = make_tx t ~sender:a ~recipient:b ~amount:t.cfg.amount ~nonce:t.nonces.(a) in
    t.nonces.(a) <- t.nonces.(a) + 1;
    t.n_valid <- t.n_valid + 1;
    remember t tx a;
    (tx, a)

let next_n (t : t) (k : int) : Transaction.t list =
  List.init k (fun _ -> fst (next t))

(* Square-wave burst modulation: the first [duty] fraction of each
   period runs at [mult] x the base rate. Interarrival times are
   exponential at the effective rate, so the stream is Poisson within
   each regime. *)
let interarrival (t : t) ~(now : float) ~(rate_per_s : float) : float =
  let rate =
    match t.cfg.burst with
    | None -> rate_per_s
    | Some b ->
      if b.period_s <= 0.0 then rate_per_s
      else begin
        let phase = Float.rem now b.period_s /. b.period_s in
        if phase < b.duty then rate_per_s *. b.mult else rate_per_s
      end
  in
  let rate = Float.max 1e-9 rate in
  let u = float01 t in
  -.Float.log (Float.max 1e-300 (1.0 -. u)) /. rate

let stats (t : t) : stats =
  {
    generated = t.generated;
    valid = t.n_valid;
    invalid = t.n_invalid;
    duplicate = t.n_duplicate;
    self_pay = t.n_self_pay;
  }

let initial_balances (t : t) ~(stake : int) ~(shards : int) : Balances.t =
  Balances.credit_all (Balances.create ~shards)
    (Seq.map (fun pk -> (pk, stake)) (Array.to_seq t.pks))
