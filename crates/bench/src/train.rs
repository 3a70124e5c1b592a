//! Shared model-training helpers for the accuracy experiments.
//!
//! The §5.1 protocol, concretely: pretrain a dense-attention model on the
//! task, then (a) swap in a sparse mechanism without finetuning, and/or
//! (b) finetune briefly with the mechanism active, and evaluate. bf16 rows
//! cast the finished model to bf16 before evaluation.

use dfss_tasks::protocol::{
    eval_classifier, eval_mlm_ppl, eval_qa_f1, train_classifier, train_mlm, train_qa, TrainSpec,
};
use dfss_tasks::{mlm, qa, ClsDataset};
use dfss_tensor::Rng;
use dfss_transformer::heads::{ClassifierHead, MlmHead, SpanHead};
use dfss_transformer::{AttnKind, Encoder, EncoderConfig, Precision};

/// Standard QA benchmark shape (the SQuAD stand-in of Tables 1–2).
pub fn qa_config(quick: bool) -> (qa::QaConfig, EncoderConfig) {
    let qcfg = qa::QaConfig {
        seq_len: 48,
        n_keys: 8,
        n_values: 8,
        n_fillers: 10,
        records: if quick { 4 } else { 5 },
        span_min: 1,
        span_max: 3,
    };
    let ecfg = EncoderConfig {
        vocab: qcfg.vocab(),
        max_len: qcfg.seq_len,
        d_model: 64,
        heads: 2,
        d_ffn: 128,
        layers: 2,
        kind: AttnKind::Full,
    };
    (qcfg, ecfg)
}

/// Train set size / epochs for the QA runs.
pub fn qa_budget(quick: bool) -> (usize, usize, usize) {
    if quick {
        (700, 10, 60) // train, epochs, test
    } else {
        (1000, 14, 150)
    }
}

/// A trained QA model.
pub struct QaModel {
    pub enc: Encoder,
    pub head: SpanHead,
    pub qcfg: qa::QaConfig,
}

/// Pretrain a dense QA model from scratch with the given seed.
pub fn pretrain_qa(seed: u64, quick: bool) -> (QaModel, Vec<qa::QaExample>, Vec<qa::QaExample>) {
    let (qcfg, ecfg) = qa_config(quick);
    let (n_train, epochs, n_test) = qa_budget(quick);
    let train = qa::generate(&qcfg, n_train, 1000 + seed);
    let test = qa::generate(&qcfg, n_test, 9000 + seed);
    let mut rng = Rng::new(seed);
    let mut enc = Encoder::new(ecfg, &mut rng);
    let mut head = SpanHead::new(64, &mut rng);
    let mut spec = TrainSpec::quick(epochs, train.len(), 16);
    spec.adam.lr = 1e-3;
    spec.shuffle_seed = seed.wrapping_mul(31) + 7;
    let _ = train_qa(&mut enc, &mut head, &train, &spec);
    (QaModel { enc, head, qcfg }, train, test)
}

/// Finetune an existing QA model under a (possibly sparse) mechanism for a
/// couple of epochs ("It only takes a couple of finetuning epochs", §1).
pub fn finetune_qa(model: &mut QaModel, kind: AttnKind, train: &[qa::QaExample], seed: u64) {
    model.enc.set_attention(kind);
    let mut spec = TrainSpec::quick(2, train.len(), 16);
    spec.adam.lr = 5e-4;
    spec.shuffle_seed = seed.wrapping_mul(17) + 3;
    let _ = train_qa(&mut model.enc, &mut model.head, train, &spec);
}

/// Evaluate F1 under a mechanism and precision (restores nothing).
pub fn eval_qa(
    model: &mut QaModel,
    kind: AttnKind,
    precision: Precision,
    test: &[qa::QaExample],
) -> f64 {
    model.enc.set_attention(kind);
    model.enc.set_precision(precision);
    eval_qa_f1(&mut model.enc, &mut model.head, test, model.qcfg.span_max)
}

/// A trained MLM model.
pub struct MlmModel {
    pub enc: Encoder,
    pub head: MlmHead,
}

/// Pretrain a dense MLM model on a synthetic language.
pub fn pretrain_mlm(
    lang: &mlm::Language,
    seed: u64,
    quick: bool,
) -> (MlmModel, Vec<mlm::MlmExample>, Vec<mlm::MlmExample>) {
    let (n_train, epochs, n_test) = if quick { (300, 4, 60) } else { (600, 8, 150) };
    let train = lang.generate(n_train, 3000 + seed);
    let test = lang.generate(n_test, 8000 + seed);
    let cfg = EncoderConfig {
        vocab: lang.cfg().vocab,
        max_len: lang.cfg().seq_len,
        d_model: 64,
        heads: 2,
        d_ffn: 128,
        layers: 2,
        kind: AttnKind::Full,
    };
    let mut rng = Rng::new(seed);
    let mut enc = Encoder::new(cfg, &mut rng);
    let mut head = MlmHead::new(64, lang.cfg().vocab, &mut rng);
    let mut spec = TrainSpec::quick(epochs, train.len(), 16);
    spec.adam.lr = 2e-3;
    spec.shuffle_seed = seed.wrapping_mul(29) + 11;
    let _ = train_mlm(&mut enc, &mut head, &train, &spec);
    (MlmModel { enc, head }, train, test)
}

/// Finetune an MLM model under a mechanism.
pub fn finetune_mlm(model: &mut MlmModel, kind: AttnKind, train: &[mlm::MlmExample], seed: u64) {
    model.enc.set_attention(kind);
    let mut spec = TrainSpec::quick(2, train.len(), 16);
    spec.adam.lr = 5e-4;
    spec.shuffle_seed = seed.wrapping_mul(13) + 1;
    let _ = train_mlm(&mut model.enc, &mut model.head, train, &spec);
}

/// Evaluate perplexity under a mechanism and precision.
pub fn eval_mlm(
    model: &mut MlmModel,
    kind: AttnKind,
    precision: Precision,
    test: &[mlm::MlmExample],
) -> f64 {
    model.enc.set_attention(kind);
    model.enc.set_precision(precision);
    eval_mlm_ppl(&mut model.enc, &mut model.head, test)
}

/// Train a classifier from scratch under `kind` on an LRA-style dataset and
/// return test accuracy (×100, like the paper's Table 4).
pub fn train_eval_lra(
    ds: &ClsDataset,
    kind: AttnKind,
    precision: Precision,
    d_model: usize,
    epochs: usize,
    seed: u64,
) -> f64 {
    let cfg = EncoderConfig {
        vocab: ds.vocab,
        max_len: ds.seq_len,
        d_model,
        heads: 2,
        d_ffn: d_model * 2,
        layers: 2,
        kind,
    };
    let mut rng = Rng::new(seed);
    let mut enc = Encoder::new(cfg, &mut rng);
    let mut head = ClassifierHead::new(d_model, ds.classes, &mut rng);
    let mut spec = TrainSpec::quick(epochs, ds.train.len(), 16);
    spec.adam.lr = 1.5e-3;
    spec.shuffle_seed = seed.wrapping_mul(41) + 5;
    let _ = train_classifier(&mut enc, &mut head, &ds.train, &spec);
    enc.set_precision(precision);
    100.0 * eval_classifier(&mut enc, &mut head, &ds.test)
}
