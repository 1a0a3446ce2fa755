type t = {
  rate : float;
  hot_fraction : float;
  hot_bias : float;
  tombstone_rate : float;
  insert_rate : float;
  touch_share : float;
  burst_every : int;
  burst_len : int;
  burst_mult : float;
}

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

let make ?(hot_fraction = 0.1) ?(hot_bias = 0.7) ?(tombstone_rate = 0.05)
    ?(insert_rate = 0.05) ?(touch_share = 0.5) ?(burst_every = 0) ?(burst_len = 0)
    ?(burst_mult = 1.0) ~rate () =
  {
    rate = Float.max 0.0 rate;
    hot_fraction = clamp01 hot_fraction;
    hot_bias = clamp01 hot_bias;
    tombstone_rate = clamp01 tombstone_rate;
    insert_rate = clamp01 insert_rate;
    touch_share = clamp01 touch_share;
    burst_every = max 0 burst_every;
    burst_len = max 0 burst_len;
    burst_mult = Float.max 0.0 burst_mult;
  }

let zero = make ~rate:0.0 ()
let low = make ~rate:0.02 ()
let high = make ~rate:0.3 ~burst_every:50 ~burst_len:10 ~burst_mult:3.0 ()
