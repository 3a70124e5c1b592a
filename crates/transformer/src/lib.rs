//! # dfss-transformer — a trainable transformer encoder with pluggable
//! attention
//!
//! The paper's accuracy experiments finetune BERT-large / roBERTa-large and
//! train LRA models from scratch. Those checkpoints are a reproduction gate,
//! so this crate provides the substitute substrate: a
//! from-scratch encoder with manual backpropagation, Adam, and a
//! [`attn::AttnKind`] switch that swaps the attention mechanism *exactly*
//! like the paper's Figure 3 drop-in replacement — `Full` → `Nm(1:2)` is a
//! one-line change.
//!
//! Training always runs in f32; the `bfloat16` table rows follow the paper's
//! protocol ("After the finetuning, we directly cast all the parameters in
//! the model to bfloat16 and test") via [`encoder::Precision::Bf16`], which
//! rounds weights and activations through bf16 at every operator boundary.
//!
//! Module map: [`param`] (tensors + Adam state) · [`linear`] · [`norm`]
//! (LayerNorm) · [`embed`] (token + positional) · [`attn`] (multi-head
//! attention, all mechanisms, forward + backward) · [`ffn`] · [`encoder`]
//! (layers, model) · [`heads`] (classifier / span / masked-LM) · [`loss`]
//! (cross-entropy) · [`trainer`] (batching, LR schedule, gradient clipping).

pub mod attn;
pub mod embed;
pub mod encoder;
pub mod ffn;
pub mod heads;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod param;
pub mod trainer;

pub use attn::AttnKind;
pub use encoder::{Encoder, EncoderConfig, Precision};
